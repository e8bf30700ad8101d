package ooc

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"hep/internal/graph"
)

// FuzzOpenMmap feeds arbitrary bytes, written to a temp file, to OpenMmap
// with vertex discovery on, then scans the whole stream with Chunks and
// Edges. A size that is not a multiple of 8 must be an error; anything else
// must open with the right counts and lend exactly the file's edges, in
// order, across chunks of 1–8 edges. Nothing may panic.
func FuzzOpenMmap(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 9}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenMmap(path, 0)
		if len(data)%8 != 0 {
			if err == nil {
				s.Close()
				t.Fatalf("%d bytes accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d bytes rejected: %v", len(data), err)
		}
		defer s.Close()
		s.chunkEdges = 1 + int(chunk)%8

		var want []graph.Edge
		var maxID graph.V
		for i := 0; i+8 <= len(data); i += 8 {
			e := graph.Edge{U: binary.LittleEndian.Uint32(data[i:]), V: binary.LittleEndian.Uint32(data[i+4:])}
			want = append(want, e)
			maxID = max(maxID, e.U, e.V)
		}
		if s.NumEdges() != int64(len(want)) {
			t.Fatalf("NumEdges %d, want %d", s.NumEdges(), len(want))
		}
		if len(want) > 0 && s.NumVertices() != int(maxID)+1 {
			t.Fatalf("NumVertices %d, want %d", s.NumVertices(), int(maxID)+1)
		}

		var got []graph.Edge
		err = s.Chunks(func(edges []graph.Edge, release func()) bool {
			if len(edges) == 0 || len(edges) > s.chunkEdges {
				t.Fatalf("lent a chunk of %d edges (chunk size %d)", len(edges), s.chunkEdges)
			}
			got = append(got, edges...)
			release()
			return true
		})
		if err != nil {
			t.Fatalf("Chunks: %v", err)
		}
		if s.Lent() != 0 {
			t.Fatalf("%d slabs still lent after a full scan", s.Lent())
		}
		n := 0
		if err := s.Edges(func(u, v graph.V) bool {
			if n < len(got) && got[n] != (graph.Edge{U: u, V: v}) {
				t.Fatalf("Edges and Chunks disagree at edge %d", n)
			}
			n++
			return true
		}); err != nil {
			t.Fatalf("Edges: %v", err)
		}
		if len(got) != len(want) || n != len(want) {
			t.Fatalf("Chunks lent %d edges, Edges yielded %d, want %d", len(got), n, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
			}
		}
	})
}
