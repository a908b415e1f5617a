package dynstream

import (
	"context"
	"fmt"
	"strings"
)

// Test hooks shared by the package's internal and external tests.

// BuildDecode is Decode of a cold Build over src — the offline
// reference every live-query test compares a Handle's Answer against.
func BuildDecode[R any](ctx context.Context, src Source, target Target[R], opts ...Option) (*Answer, error) {
	res, err := Build(ctx, src, target, opts...)
	if err != nil {
		return nil, err
	}
	return Decode(ctx, target, res, opts...)
}

// AnswerKey renders everything an Answer says except Applied (which
// only a live query sets) as one string, so two answers compare bit for
// bit.
func AnswerKey(a *Answer) string {
	var b strings.Builder
	if a.Graph == nil {
		b.WriteString("<no graph>\n")
	} else {
		for _, e := range a.Graph.Edges() {
			fmt.Fprintf(&b, "%d %d %g\n", e.U, e.V, e.W)
		}
	}
	fmt.Fprintf(&b, "components=%d bipartite=%v words=%d summary=%q",
		a.Components, a.Bipartite, a.SpaceWords, a.Summary)
	return b.String()
}

// QueryResult runs a handle's live decode under its mutex and returns
// what the target's answer method would render: the live sketch itself
// for the AGM family, the freshly extracted result for the spanner,
// additive spanner and sparsifier. Tests use it to assert on state and
// result fields an Answer does not carry; it aliases live state, which
// is why it is not API.
func QueryResult(ctx context.Context, h *Handle) (any, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.live.query(h.o.livePolicy(ctx, h.src))
}
