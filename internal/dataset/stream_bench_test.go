package dataset

import (
	"bytes"
	"context"
	"encoding/csv"
	"io"
	"runtime"
	"testing"
)

// Throughput/allocation benchmarks for the streaming dataset layer. Each
// op processes benchRows rows, so allocs/op ÷ benchRows is the per-row
// allocation count: the streaming writer holds it at zero in steady state
// (one scratch buffer, reused), and the streaming reader at a small
// constant (the csv package's one backing string per record) — versus the
// ReadAll baseline's whole-table materialization.

const benchRows = 2000

var benchUsersOnce []User

func benchUserSet() []User {
	if benchUsersOnce == nil {
		benchUsersOnce = manyUsers(benchRows)
	}
	return benchUsersOnce
}

func BenchmarkWriteUsersStream(b *testing.B) {
	users := benchUserSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uw, err := NewWriter[User](io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for j := range users {
			if err := uw.Write(&users[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWriteUsersParallel(b *testing.B) {
	users := benchUserSet()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeSharded(context.Background(), &buf, tableOf[User](), users, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadUsersStream(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, benchUserSet()); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ur, err := NewReader[User](bytes.NewReader(raw), "users")
		if err != nil {
			b.Fatal(err)
		}
		var u User
		rows := 0
		for {
			err := ur.Read(&u)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != benchRows {
			b.Fatalf("read %d rows", rows)
		}
	}
}

// BenchmarkReadUsersBaselineReadAll is the pre-streaming shape of the
// reader — csv.ReadAll materializing every row as a fresh []string — kept
// as the allocation baseline the iterators are measured against.
func BenchmarkReadUsersBaselineReadAll(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, benchUserSet()); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
		if err != nil {
			b.Fatal(err)
		}
		users := make([]User, 0, len(rows)-1)
		for _, rec := range rows[1:] {
			p := &parser{rec: rec}
			var u User
			decodeUser(p, &u)
			if p.err != nil {
				b.Fatal(p.err)
			}
			users = append(users, u)
		}
		if len(users) != benchRows {
			b.Fatalf("read %d rows", len(users))
		}
	}
}

// BenchmarkReadUsersSlice measures the public slice API (streaming under
// the hood, plus the result slice the caller asked for).
func BenchmarkReadUsersSlice(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, benchUserSet()); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		users, err := ReadAll[User](bytes.NewReader(raw), "users")
		if err != nil {
			b.Fatal(err)
		}
		if len(users) != benchRows {
			b.Fatalf("read %d rows", len(users))
		}
	}
}
