package agm

import (
	"testing"

	"dynstream/internal/graph"
	"dynstream/internal/stream"
)

// Round trips for the application sketches: ship one shard's state as
// bytes, merge at a coordinator, and check the decoded output matches
// the single-process reference.

func appsStream(t *testing.T, n int, seed uint64) *stream.MemoryStream {
	t.Helper()
	g := graph.ConnectedGNP(n, 0.2, seed)
	return stream.WithChurn(g, 80, seed+1)
}

func TestKConnectivityMarshalRoundTrip(t *testing.T) {
	st := appsStream(t, 24, 501)
	ref := NewKConnectivity(502, st.N(), 2)
	if err := st.Replay(func(u stream.Update) error { ref.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := ref.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}

	shards, err := stream.Split(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewKConnectivity(502, st.N(), 2), NewKConnectivity(502, st.N(), 2)
	for i, kc := range []*KConnectivity{a, b} {
		if err := shards[i].Replay(func(u stream.Update) error { kc.AddUpdate(u); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var shipped KConnectivity
	if err := shipped.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(&shipped); err != nil {
		t.Fatal(err)
	}
	got, err := a.CertificateGraphOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != want.M() {
		t.Fatalf("certificate: %d edges vs %d", got.M(), want.M())
	}
	for _, e := range want.Edges() {
		if !got.HasEdge(e.U, e.V) {
			t.Fatalf("certificate missing edge (%d,%d)", e.U, e.V)
		}
	}
}

func TestBipartitenessMarshalRoundTrip(t *testing.T) {
	// Odd cycle: not bipartite; shipped state must preserve the verdict.
	n := 7
	ms := stream.NewMemoryStream(n)
	for i := 0; i < n; i++ {
		if err := ms.Append(stream.Update{U: i, V: (i + 1) % n, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := stream.Split(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewBipartiteness(503, n), NewBipartiteness(503, n)
	for i, bp := range []*Bipartiteness{a, b} {
		if err := shards[i].Replay(func(u stream.Update) error { bp.AddUpdate(u); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var shipped Bipartiteness
	if err := shipped.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(&shipped); err != nil {
		t.Fatal(err)
	}
	bip, err := a.IsBipartiteOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bip {
		t.Fatal("odd cycle reported bipartite after wire round trip")
	}
}

func TestMSFMarshalRoundTrip(t *testing.T) {
	n := 12
	ms := stream.NewMemoryStream(n)
	for i := 0; i < n-1; i++ {
		if err := ms.Append(stream.Update{U: i, V: i + 1, Delta: 1, W: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// A heavy chord that must not displace light path edges.
	if err := ms.Append(stream.Update{U: 0, V: n - 1, Delta: 1, W: 40}); err != nil {
		t.Fatal(err)
	}

	ref := NewMSF(504, n, 64, 0.5)
	if err := ms.Replay(func(u stream.Update) error { ref.AddUpdate(u); return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}

	shards, err := stream.Split(ms, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewMSF(504, n, 64, 0.5), NewMSF(504, n, 64, 0.5)
	for i, m := range []*MSF{a, b} {
		if err := shards[i].Replay(func(u stream.Update) error { m.AddUpdate(u); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var shipped MSF
	if err := shipped.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(&shipped); err != nil {
		t.Fatal(err)
	}
	got, err := a.ForestOpts(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("forest: %d edges vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("forest edge %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestApplicationMarshalRejectsGarbage(t *testing.T) {
	var kc KConnectivity
	if err := kc.UnmarshalBinary([]byte("nope")); err == nil {
		t.Error("KConnectivity accepted garbage")
	}
	var bp Bipartiteness
	if err := bp.UnmarshalBinary(nil); err == nil {
		t.Error("Bipartiteness accepted empty input")
	}
	var m MSF
	if err := m.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("MSF accepted short input")
	}
}
