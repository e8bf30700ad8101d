package edgeio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"hep/internal/graph"
)

// decodeRef is the reference decoding of a binary edge list: every whole
// little-endian uint32 pair, ignoring a trailing partial record.
func decodeRef(data []byte) []graph.Edge {
	edges := make([]graph.Edge, 0, len(data)/8)
	for i := 0; i+8 <= len(data); i += 8 {
		edges = append(edges, graph.Edge{
			U: binary.LittleEndian.Uint32(data[i:]),
			V: binary.LittleEndian.Uint32(data[i+4:]),
		})
	}
	return edges
}

// FuzzReadBinary feeds arbitrary bytes, written to a temp file, to the binary
// readers: ReadBinary, ReadBinaryFile and the streaming OpenFile. A size
// that is not a multiple of 8 must be an error, anything else must decode
// to exactly the reference edges, and nothing may panic. The file is then
// cut to a shorter length behind the open File, which must stream the
// surviving whole records and report a cut inside a record as an error.
func FuzzReadBinary(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint16(3))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 9}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xff}, 24), uint16(8))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole := len(data)%8 == 0
		want := decodeRef(data)
		check := func(label string, got []graph.Edge, err error) {
			t.Helper()
			if !whole {
				if err == nil {
					t.Fatalf("%s: %d bytes accepted", label, len(data))
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: edge %d = %v, want %v", label, i, got[i], want[i])
				}
			}
		}

		got, err := ReadBinary(bytes.NewReader(data))
		check("ReadBinary", got, err)

		path := filepath.Join(t.TempDir(), "g.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err = ReadBinaryFile(path)
		check("ReadBinaryFile", got, err)

		file, err := OpenFile(path, 0)
		if err != nil || !whole {
			if whole || err == nil {
				t.Fatalf("OpenFile of %d bytes: error %v", len(data), err)
			}
			return
		}
		if file.NumEdges() != int64(len(want)) {
			t.Fatalf("NumEdges %d, want %d", file.NumEdges(), len(want))
		}
		var maxID graph.V
		for _, e := range want {
			maxID = max(maxID, e.U, e.V)
		}
		if len(want) > 0 && file.NumVertices() != int(maxID)+1 {
			t.Fatalf("NumVertices %d, want %d", file.NumVertices(), int(maxID)+1)
		}
		got = got[:0]
		err = file.Edges(func(u, v graph.V) bool {
			got = append(got, graph.Edge{U: u, V: v})
			return true
		})
		check("File.Edges", got, err)

		if len(data) == 0 {
			return
		}
		short := len(data) - 1 - int(cut)%len(data)
		if err := os.Truncate(path, int64(short)); err != nil {
			t.Fatal(err)
		}
		n := 0
		err = file.Edges(func(u, v graph.V) bool {
			if e := (graph.Edge{U: u, V: v}); e != want[n] {
				t.Fatalf("after cut to %d bytes: edge %d = %v, want %v", short, n, e, want[n])
			}
			n++
			return true
		})
		if n != short/8 {
			t.Fatalf("after cut to %d bytes: streamed %d edges, want %d", short, n, short/8)
		}
		if (err == nil) != (short%8 == 0) {
			t.Fatalf("after cut to %d bytes: error %v", short, err)
		}
	})
}
