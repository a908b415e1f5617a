package main

import (
	"bytes"
	"time"
)

// timedReader feeds a generated stream to the program in chunks of one
// update batch and timestamps every Read, so the benchmark sees when
// the program asked for each batch without instrumenting the program.
// It does not implement io.Seeker: the program treats it as a pipe.
type timedReader struct {
	r     *bytes.Reader
	chunk int
	// reads holds the time of every Read call; a Seek appends the zero
	// time as a segment break (a rewind for a new pass).
	reads []time.Time
}

func newTimedReader(b []byte, chunk int) *timedReader {
	return &timedReader{r: bytes.NewReader(b), chunk: chunk}
}

func (t *timedReader) Read(p []byte) (int, error) {
	t.reads = append(t.reads, time.Now())
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	return t.r.Read(p)
}

// seekableReader is a timedReader the program may rewind, as it rewinds
// a file for a second pass.
type seekableReader struct{ *timedReader }

func (s seekableReader) Seek(off int64, whence int) (int64, error) {
	s.reads = append(s.reads, time.Time{})
	return s.r.Seek(off, whence)
}

// firstRead is the time the program read its first byte.
func (t *timedReader) firstRead() time.Time {
	for _, r := range t.reads {
		if !r.IsZero() {
			return r
		}
	}
	return time.Time{}
}

// ingest returns how many batches the program consumed and the time it
// spent consuming them: the sum over batches of the time from handing a
// batch over to the program's next read. Gaps across a rewind are not
// batches, and the first gap spans the hand-over from source open to
// Build, so both are left out.
func (t *timedReader) ingest() (batches int, busy time.Duration) {
	first := true
	for i := 1; i < len(t.reads); i++ {
		a, b := t.reads[i-1], t.reads[i]
		if a.IsZero() || b.IsZero() {
			continue
		}
		if first {
			first = false
			continue
		}
		batches++
		busy += b.Sub(a)
	}
	return batches, busy
}
