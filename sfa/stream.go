package sfa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Stream matches input that arrives in pieces — files read in blocks,
// network payloads, log shipping. It is a direct payoff of the SFA's
// algebra: each Write scans its chunk in parallel from the identity
// mapping (Algorithm 5, lines 1–5) and folds the result into the running
// transformation with the associative ⊙, so the state carried between
// Writes is a single mapping of size |D| regardless of how much input has
// been consumed. Chunks of any size may be fed in any number of calls;
// Theorem 3 guarantees the verdict is split-invariant.
//
// Chunk scans dispatch through the engine's persistent worker pool and
// reuse its pooled match contexts, so a steady-state Write performs no
// heap allocation and creates no goroutines.
//
// A Stream is not safe for concurrent use; each goroutine should own one
// (Regexp.NewStream is cheap).
type Stream struct {
	re    *Regexp
	eng   *engine.MultiSFA
	cur   []int16 // running transformation (starts at identity)
	tmp   []int16
	bytes int64
}

// NewStream starts incremental matching. Only patterns compiled with
// EngineSFA (the default) support streaming.
func (re *Regexp) NewStream() (*Stream, error) {
	if re.dsfa == nil {
		return nil, fmt.Errorf("sfa: streaming needs EngineSFA, have %s", re.EngineName())
	}
	eng := re.matcher.(*engine.MultiSFA) // invariant: dsfa != nil ⇒ SFA engine
	n := eng.MappingLen()
	s := &Stream{re: re, eng: eng, cur: make([]int16, n), tmp: make([]int16, n)}
	eng.InitMapping(s.cur)
	return s, nil
}

// Write consumes the next chunk of input. It never fails; the error
// return satisfies io.Writer so a Stream can terminate io.Copy pipelines.
func (s *Stream) Write(chunk []byte) (int, error) {
	s.cur, s.tmp = s.eng.ComposeChunk(s.cur, s.tmp, chunk)
	s.bytes += int64(len(chunk))
	return len(chunk), nil
}

// Accepted reports whether the input consumed so far is accepted. It may
// be called at any point; the stream continues afterwards.
func (s *Stream) Accepted() bool {
	return s.eng.AcceptedFrom(s.cur)
}

// Bytes returns the number of bytes consumed.
func (s *Stream) Bytes() int64 { return s.bytes }

// Reset rewinds the stream to the identity mapping (no input consumed).
func (s *Stream) Reset() {
	s.eng.InitMapping(s.cur)
	s.bytes = 0
}

// Compose merges another stream's consumed input *after* this one's, as
// if the two byte sequences had been concatenated: s ← s · t. Both
// streams must come from the same Regexp. This enables out-of-order
// processing: scan file segments on different machines or goroutines,
// then fold the mappings.
func (s *Stream) Compose(t *Stream) error {
	if t.re != s.re {
		return fmt.Errorf("sfa: cannot compose streams of different patterns")
	}
	core.ComposeVec(s.tmp, s.cur, t.cur)
	s.cur, s.tmp = s.tmp, s.cur
	s.bytes += t.bytes
	return nil
}
