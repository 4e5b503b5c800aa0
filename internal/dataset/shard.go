package dataset

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"github.com/nwca/broadband/internal/par"
)

// Sharded parallel CSV encoding: the record slice is split into contiguous
// shards, each encoded by its own worker into a private buffer with the
// record-at-a-time encoder, and the shards are concatenated in canonical
// order after the header. Because every row is encoded independently and
// shard boundaries never cut a record, the output is byte-identical for any
// worker count — the same determinism contract the rest of the pipeline
// keeps (DESIGN.md §5).

// shardRange returns the half-open item range [lo, hi) of shard i when n
// items are split evenly across the given shard count.
func shardRange(n, shards, i int) (lo, hi int) {
	return i * n / shards, (i + 1) * n / shards
}

// writeSharded encodes items across workers shards and writes header then
// shards in order. workers <= 1 (or few items) degrades to a single
// streaming pass that never buffers more than one row. Once ctx is
// cancelled no further shard starts encoding.
func writeSharded[T Row](ctx context.Context, w io.Writer, t *table[T], items []T, workers int) error {
	n := len(items)
	workers = par.Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
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
	bufs := make([]bytes.Buffer, workers)
	if err := par.ForNCtx(ctx, workers, workers, func(i int) error {
		lo, hi := shardRange(n, workers, i)
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

// WriteAll writes a whole table as CSV, encoding across workers shards
// (0 = GOMAXPROCS, 1 = sequential). Output is byte-identical to a Writer
// fed the same rows, for every worker count.
func WriteAll[T Row](w io.Writer, rows []T, workers int) error {
	return writeSharded(context.Background(), w, tableOf[T](), rows, workers)
}
