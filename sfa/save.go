package sfa

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
)

// Save serializes a compiled pattern (pattern text plus DFA plus D-SFA)
// so it can be reloaded with Load without recompiling — Table III shows
// construction dominates start-up for large automata. Only the default
// EngineSFA carries the tables Save needs.
func (re *Regexp) Save(w io.Writer) error {
	if re.dsfa == nil {
		return fmt.Errorf("sfa: Save needs EngineSFA, have %s", re.EngineName())
	}
	var len32 [4]byte
	binary.LittleEndian.PutUint32(len32[:], uint32(len(re.pattern)))
	if _, err := w.Write(len32[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, re.pattern); err != nil {
		return err
	}
	_, err := re.dsfa.WriteTo(w)
	return err
}

// Load reconstructs a Regexp saved with Save. Matching options (threads,
// reduction) may be supplied; pattern-affecting options (flags, search)
// are already baked into the saved automata and are ignored.
func Load(r io.Reader, opts ...Option) (*Regexp, error) {
	var len32 [4]byte
	if _, err := io.ReadFull(r, len32[:]); err != nil {
		return nil, fmt.Errorf("sfa: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint32(len32[:])
	if n > 1<<20 {
		return nil, fmt.Errorf("sfa: implausible pattern length %d", n)
	}
	pat := make([]byte, n)
	if _, err := io.ReadFull(r, pat); err != nil {
		return nil, fmt.Errorf("sfa: reading pattern: %w", err)
	}
	s, err := core.ReadDSFA(r)
	if err != nil {
		return nil, err
	}

	cfg := buildConfig(opts)
	return &Regexp{
		pattern: string(pat),
		cfg:     cfg,
		dfa:     s.D,
		dsfa:    s,
		matcher: engine.NewSFAParallel(s, cfg.threads, cfg.reduction()),
	}, nil
}
