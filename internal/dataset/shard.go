package dataset

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"github.com/nwca/broadband/internal/par"
)

// Sharded parallel CSV encoding: the record slice is split into contiguous
// shards, each encoded by its own goroutine into a private buffer with the
// record-at-a-time encoder, and the shards are concatenated in canonical
// order after the header. Because every row is encoded independently and
// shard boundaries never cut a record, the output is byte-identical for any
// shard count — the same determinism contract the rest of the pipeline
// keeps (DESIGN.md §5).

// shardRange returns the half-open item range [lo, hi) of shard i when n
// items are split evenly across the given shard count.
func shardRange(n, shards, i int) (lo, hi int) {
	return i * n / shards, (i + 1) * n / shards
}

// writeSharded encodes items across the given number of shards and
// writes header then shards in order. One shard (or few items) degrades to
// a single streaming pass that never buffers more than one row. Once ctx
// is cancelled no further shard starts encoding.
func writeSharded[T Row](ctx context.Context, w io.Writer, t *table[T], items []T, shards int) error {
	n := len(items)
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		rw := rowWriter{w: w, table: t.name}
		if err := rw.header(t.header); err != nil {
			return err
		}
		for i := range items {
			t.encode(&rw, &items[i])
			if err := rw.endRow(); err != nil {
				return err
			}
		}
		return nil
	}
	bufs := make([]bytes.Buffer, shards)
	if err := par.ForNCtx(ctx, shards, shards, func(i int) error {
		lo, hi := shardRange(n, shards, i)
		// Seed the row counter so error messages report absolute rows.
		rw := rowWriter{w: &bufs[i], table: t.name, row: 1 + lo}
		for j := lo; j < hi; j++ {
			t.encode(&rw, &items[j])
			if err := rw.endRow(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rw := rowWriter{w: w, table: t.name}
	if err := rw.header(t.header); err != nil {
		return err
	}
	for i := range bufs {
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return fmt.Errorf("dataset: writing %s shard %d: %w", t.name, i, err)
		}
	}
	return nil
}

// WriteAll writes a whole table as CSV in one sequential streaming pass
// that never buffers more than one row. Output is byte-identical to a
// Writer fed the same rows, and to the sharded encoder SaveTableCtx uses.
func WriteAll[T Row](w io.Writer, rows []T) error {
	return writeSharded(context.Background(), w, tableOf[T](), rows, 1)
}
