package agm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// encodeAGMV1 reproduces the legacy dense v1 sketch layout (all-u64
// header, u64 sampler lengths, no zero suppression) to pin the
// decoder's back-compat path.
func encodeAGMV1(t *testing.T, s *Sketch) []byte {
	t.Helper()
	var out []byte
	u64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	u64(tagAGM)
	u64(s.seed)
	u64(uint64(s.n))
	u64(uint64(s.rounds))
	u64(uint64(s.perLvl))
	for r := 0; r < s.rounds; r++ {
		for v := 0; v < s.n; v++ {
			enc, err := s.samp[r][v].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			u64(uint64(len(enc)))
			out = append(out, enc...)
		}
	}
	return out
}

func TestAGMMarshalV1BackCompat(t *testing.T) {
	g := graph.ConnectedGNP(24, 0.15, 5)
	st := stream.WithChurn(g, 120, 6)
	s := New(9, g.N(), Config{})
	if err := st.Replay(func(u stream.Update) error { s.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}

	v2, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeAGMV1(t, s)
	if len(v2) >= len(v1) {
		t.Fatalf("v2 encoding %d bytes not smaller than v1 %d bytes", len(v2), len(v1))
	}

	var fromV1 Sketch
	if err := fromV1.UnmarshalBinary(v1); err != nil {
		t.Fatalf("v1 blob no longer decodes: %v", err)
	}
	re, err := fromV1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, v2) {
		t.Fatal("v1-decoded sketch re-encodes differently from the live sketch")
	}

	// Decoded-from-v1 state is fully functional: it merges and decodes
	// a forest like the original.
	fresh := New(9, g.N(), Config{})
	if err := fresh.Merge(&fromV1); err != nil {
		t.Fatal(err)
	}
	forestA, errA := s.SpanningForestOpts(nil, nil)
	forestB, errB := fresh.SpanningForestOpts(nil, nil)
	if errA != nil || errB != nil {
		t.Fatalf("forest decode: %v / %v", errA, errB)
	}
	if len(forestA) != len(forestB) {
		t.Fatalf("forest from v1-decoded state has %d edges, want %d", len(forestB), len(forestA))
	}
}
