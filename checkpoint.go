package dynstream

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dynstream/internal/agm"
	"dynstream/internal/dynnet"
	"dynstream/internal/obs"
	"dynstream/internal/spanner"
	"dynstream/internal/sparsify"
)

// Checkpoint/restore for live handles. Every construction in this
// package is a linear sketch with a canonical binary encoding, which
// makes durable snapshots nearly free: a checkpoint is the target's
// serialized live state (configuration, seed, and sketch contents —
// for the two-pass targets, also the live update log) wrapped in a
// versioned, CRC-framed container:
//
//	checkpoint := magic("DSCKPT1\n") section*
//	section    := kind(1) len(uvarint) payload crc32(4, LE)
//
// The CRC covers the section's kind, length bytes, and payload, so a
// snapshot truncated or damaged at any byte is rejected with
// ErrBadCheckpoint instead of restoring silently wrong state. The
// final section is an empty end marker; a file that stops before it
// was cut off mid-write.
//
// The meta section names the state kind (the same numbering the dynnet
// wire protocol uses), the vertex count, and the handle's applied-
// update count; the state section holds the opaque live-state blob.
// The base stream is deliberately NOT part of a checkpoint — Restore
// re-attaches the caller's source, and the applied-update count tells
// the caller exactly which suffix of its own update log to replay:
//
//	f, _ := os.Create("state.ckpt")
//	err := h.Checkpoint(f)            // at any point in the stream
//	...
//	h2, _ := dynstream.Restore(ctx, f, src, target)
//	h2.Apply(log[h2.AppliedUpdates():]) // replay the suffix
//
// after which every Query of h2 is bit-identical to an uninterrupted
// handle's — linearity makes the cut invisible.

// checkpointMagic is the container preamble; the trailing digit is the
// container format version.
const checkpointMagic = "DSCKPT1\n"

// The checkpoint section kinds.
const (
	sectionMeta  = 1 // state kind, n, applied-update count
	sectionState = 2 // the live state's serialized contents
	sectionEnd   = 3 // empty end marker (truncation guard)
)

// ErrBadCheckpoint reports an invalid, corrupt, or truncated
// checkpoint, or one whose contents do not fit the restoring target
// and source.
var ErrBadCheckpoint = errors.New("dynstream: invalid checkpoint")

// checkpointMeta is the decoded meta section.
type checkpointMeta struct {
	kind    dynnet.StateKind
	n       int
	applied int64
}

// writeSection frames one section: kind, uvarint length, payload, and
// the CRC over all of it.
func writeSection(w *bufio.Writer, kind byte, payload []byte) error {
	var hdr []byte
	hdr = append(hdr, kind)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	crc := crc32.ChecksumIEEE(hdr)
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.Write(tail[:])
	return err
}

// readSection reads and validates one section.
func readSection(br *bufio.Reader) (kind byte, payload []byte, err error) {
	kind, err = br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated before a section", ErrBadCheckpoint)
	}
	crc := crc32.NewIEEE()
	crc.Write([]byte{kind})
	var ln uint64
	var lnBuf []byte
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, nil, fmt.Errorf("%w: unterminated section length", ErrBadCheckpoint)
		}
		b, err := br.ReadByte()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: truncated section length", ErrBadCheckpoint)
		}
		lnBuf = append(lnBuf, b)
		ln |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	crc.Write(lnBuf)
	if ln > dynnet.MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: section of %d bytes exceeds limit", ErrBadCheckpoint, ln)
	}
	payload = make([]byte, ln)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated section payload", ErrBadCheckpoint)
	}
	crc.Write(payload)
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated section checksum", ErrBadCheckpoint)
	}
	if got, want := binary.LittleEndian.Uint32(tail[:]), crc.Sum32(); got != want {
		return 0, nil, fmt.Errorf("%w: section checksum mismatch (got %08x, want %08x)", ErrBadCheckpoint, got, want)
	}
	return kind, payload, nil
}

// Checkpoint writes a durable snapshot of the live state to w. The
// handle's mutex is held for the duration, so a checkpoint taken while
// other goroutines Apply concurrently is a consistent cut: it contains
// exactly the batches whose Apply returned before the snapshot, never
// a torn batch. The snapshot does not include the base stream; see
// Restore for how it is re-attached.
func (h *Handle) Checkpoint(w io.Writer) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	sp := h.o.tracer.Span("checkpoint/write")
	kind, blob, err := h.live.snapshot()
	if err != nil {
		return fmt.Errorf("dynstream: checkpoint: %w", err)
	}
	defer func() {
		sp.End(obs.A("bytes", int64(len(blob))), obs.A("applied", h.applied))
	}()
	var meta []byte
	meta = append(meta, byte(kind))
	meta = binary.AppendUvarint(meta, uint64(h.n))
	meta = binary.AppendUvarint(meta, uint64(h.applied))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := writeSection(bw, sectionMeta, meta); err != nil {
		return err
	}
	if err := writeSection(bw, sectionState, blob); err != nil {
		return err
	}
	if err := writeSection(bw, sectionEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// CheckpointFile writes a Checkpoint snapshot atomically to path: the
// container is written to a temporary file in the same directory, fsynced,
// and renamed into place, so a crash mid-write leaves either the previous
// snapshot or none — never a torn file. ErrBadCheckpoint on open is then
// always a damaged disk, not an interrupted writer.
func CheckpointFile(h *Handle, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := h.Checkpoint(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readCheckpoint decodes the container: magic, meta, state, end.
func readCheckpoint(r io.Reader) (checkpointMeta, []byte, error) {
	var meta checkpointMeta
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != checkpointMagic {
		return meta, nil, fmt.Errorf("%w: not a checkpoint (bad magic)", ErrBadCheckpoint)
	}
	kind, payload, err := readSection(br)
	if err != nil {
		return meta, nil, err
	}
	if kind != sectionMeta {
		return meta, nil, fmt.Errorf("%w: first section is %d, want meta", ErrBadCheckpoint, kind)
	}
	if len(payload) < 1 {
		return meta, nil, fmt.Errorf("%w: empty meta section", ErrBadCheckpoint)
	}
	meta.kind = dynnet.StateKind(payload[0])
	rest := payload[1:]
	n, ln := binary.Uvarint(rest)
	if ln <= 0 {
		return meta, nil, fmt.Errorf("%w: bad vertex count", ErrBadCheckpoint)
	}
	rest = rest[ln:]
	applied, ln := binary.Uvarint(rest)
	if ln <= 0 || len(rest[ln:]) != 0 {
		return meta, nil, fmt.Errorf("%w: bad applied-update count", ErrBadCheckpoint)
	}
	meta.n = int(n)
	meta.applied = int64(applied)
	kind, state, err := readSection(br)
	if err != nil {
		return meta, nil, err
	}
	if kind != sectionState {
		return meta, nil, fmt.Errorf("%w: second section is %d, want state", ErrBadCheckpoint, kind)
	}
	kind, payload, err = readSection(br)
	if err != nil {
		return meta, nil, err
	}
	if kind != sectionEnd || len(payload) != 0 {
		return meta, nil, fmt.Errorf("%w: missing end marker", ErrBadCheckpoint)
	}
	return meta, state, nil
}

// Restore reads a Checkpoint snapshot from r and returns a live Handle
// over it, with src re-attached as the base stream. src must be the
// same stream (same vertex count and, for multi-pass targets, same
// replayable contents) the checkpointed handle was opened over; the
// snapshot's own configuration and seed are authoritative — the
// target's Config/Seed fields are not consulted, only its type. After
// Apply-ing the suffix of updates past AppliedUpdates(), every Query
// is bit-identical to an uninterrupted handle's.
//
// Restore accepts the same options as Open (worker counts, batch size,
// decode cache); remote and weight-class options are rejected exactly
// as Open rejects them.
func Restore[R any](ctx context.Context, r io.Reader, src Source, target Target[R], opts ...Option) (*Handle, error) {
	_ = ctx // restores are offline: no stream pass runs until the first Query
	o, err := liveOptions(src, target, opts)
	if err != nil {
		return nil, err
	}
	// As in Open, the tracer (with any WithProgress observer) persists
	// for the restored handle's lifetime.
	tr, _ := o.effectiveTracer()
	o.tracer = tr
	sp := tr.Span("checkpoint/restore")
	meta, state, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if meta.n != src.N() {
		return nil, fmt.Errorf("%w: checkpoint has n=%d, source has n=%d", ErrBadCheckpoint, meta.n, src.N())
	}
	live, err := target.restoreLive(src, o, meta.kind, state)
	if err != nil {
		return nil, err
	}
	sp.End(obs.A("bytes", int64(len(state))), obs.A("applied", meta.applied))
	return newHandle(src, o, target, live, meta.applied), nil
}

// wrongKind is the shared kind-mismatch error of the restoreLive
// implementations.
func wrongKind(got dynnet.StateKind, target string) error {
	return fmt.Errorf("%w: checkpoint holds a %v state, target wants %s", ErrBadCheckpoint, got, target)
}

// checkpointN cross-checks the decoded state's own vertex count
// against the source (the meta section was already checked; the state
// blob carries its own n, and the two must agree).
func checkpointN(stateN, srcN int) error {
	if stateN != srcN {
		return fmt.Errorf("%w: state has n=%d, source has n=%d", ErrBadCheckpoint, stateN, srcN)
	}
	return nil
}

// liveStream asserts the replayable-stream view the two-pass restores
// need (Restore's CanReplay gate has already run; this guards the
// concrete interface).
func liveStream(src Source) (Stream, error) {
	st, ok := src.(Stream)
	if !ok {
		return nil, fmt.Errorf("dynstream: source %T is not a replayable stream: %w", src, ErrNotReplayable)
	}
	return st, nil
}

// ---- per-target snapshot / restore ----

func (l forestLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.s.MarshalBinary()
	return dynnet.KindForest, b, err
}

func (t ForestTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindForest {
		return nil, wrongKind(kind, "a forest sketch")
	}
	s := &agm.Sketch{}
	if err := s.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := checkpointN(s.N(), src.N()); err != nil {
		return nil, err
	}
	return forestLive{s}, nil
}

func (l kconnLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.kc.MarshalBinary()
	return dynnet.KindKConn, b, err
}

func (t KConnectivityTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindKConn {
		return nil, wrongKind(kind, "a k-connectivity certificate")
	}
	kc := &agm.KConnectivity{}
	if err := kc.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := checkpointN(kc.N(), src.N()); err != nil {
		return nil, err
	}
	return kconnLive{kc}, nil
}

func (l bipLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.b.MarshalBinary()
	return dynnet.KindBip, b, err
}

func (t BipartitenessTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindBip {
		return nil, wrongKind(kind, "a bipartiteness tester")
	}
	b := &agm.Bipartiteness{}
	if err := b.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := checkpointN(b.N(), src.N()); err != nil {
		return nil, err
	}
	return bipLive{b}, nil
}

func (l msfLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.m.MarshalBinary()
	return dynnet.KindMSF, b, err
}

func (t MSFTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindMSF {
		return nil, wrongKind(kind, "an MSF sketch")
	}
	// The blob carries the checkpointed handle's WMax (Open required it
	// to be explicit), so the target's own WMax is not consulted.
	m := &agm.MSF{}
	if err := m.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := checkpointN(m.N(), src.N()); err != nil {
		return nil, err
	}
	return msfLive{m}, nil
}

func (l additiveLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.a.MarshalBinary()
	return dynnet.KindAdditive, b, err
}

func (t AdditiveTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindAdditive {
		return nil, wrongKind(kind, "an additive spanner")
	}
	a := &spanner.Additive{}
	if err := a.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := checkpointN(a.N(), src.N()); err != nil {
		return nil, err
	}
	return additiveLive{a}, nil
}

func (l twoPassLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.tp.MarshalLive()
	return dynnet.KindTwoPass, b, err
}

func (t SpannerTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindTwoPass {
		return nil, wrongKind(kind, "a two-pass spanner")
	}
	st, err := liveStream(src)
	if err != nil {
		return nil, err
	}
	tp := &spanner.TwoPass{}
	if err := tp.RestoreLive(st, state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return twoPassLive{tp}, nil
}

func (l sparsifyLive) snapshot() (dynnet.StateKind, []byte, error) {
	b, err := l.ls.MarshalLive()
	return dynnet.KindGrid, b, err
}

func (t SparsifierTarget) restoreLive(src Source, o *buildOptions, kind dynnet.StateKind, state []byte) (liveState, error) {
	if kind != dynnet.KindGrid {
		return nil, wrongKind(kind, "a sparsifier")
	}
	st, err := liveStream(src)
	if err != nil {
		return nil, err
	}
	ls, err := sparsify.RestoreLive(st, state)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return sparsifyLive{ls}, nil
}
