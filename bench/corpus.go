package main

import (
	"fmt"
	"math/rand"
)

// The corpora are owned by the benchmark: the generators below started
// as copies of internal/textgen's Traffic and Payload, so that editing
// that package cannot silently change a workload. inputs_test.go pins
// the SHA-256 of each corpus at seed 1.

// attackSpan locates one planted attack line: corpus[Off:End] contains
// attacks[Kind] as a substring.
type attackSpan struct {
	Off, End int
	Kind     int
}

// corpus is one generated input plus what the generator planted in it;
// the planted spans are the generator's own account of what must match,
// used to cross-check the oracle's expected masks.
type corpus struct {
	Name    string
	Data    []byte
	Planted []attackSpan
	// kindLine renders the line the generator plants for a kind, after a
	// newline, so that a rule anchored with ^ cannot match it there any
	// more than it can inside the corpus.
	kindLine func(kind int) []byte
}

const attackPerMille = 2

var (
	trafficPaths  = []string{"/index.php", "/search", "/api/v1/items", "/img/logo.png", "/login", "/cart", "/health"}
	trafficAgents = []string{"Mozilla/5.0", "curl/8.1", "Go-http-client/2.0", "Wget/1.21"}
	attacks       = []string{
		"/cgi-bin/sh.cgi",
		"/index.php?id=1' or '1'='1",
		"SELECT password UNION SELECT user",
		"/scripts/../../winnt/system32/cmd.exe",
		"\x90\x90\x90\x90\x90\x90\x90\x90\x90\x90",
		"xp_cmdshell 'dir'",
		"<script>eval(unescape('%61'))</script>",
	}
)

// payloadAlphabet is base64 only: no byte of it starts an IDS keyword,
// which is what makes the payload corpus sparse under the ids16 literals.
const payloadAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// benignLine appends one HTTP-like line (without the newline).
func benignLine(out []byte, r *rand.Rand) []byte {
	switch r.Intn(3) {
	case 0:
		return fmt.Appendf(out, "GET %s?q=%d HTTP/1.1", trafficPaths[r.Intn(len(trafficPaths))], r.Intn(100000))
	case 1:
		return fmt.Appendf(out, "User-Agent: %s", trafficAgents[r.Intn(len(trafficAgents))])
	default:
		return fmt.Appendf(out, "Host: host-%03d.example.com", r.Intn(1000))
	}
}

// genTraffic builds about size bytes of newline-separated HTTP-like
// lines; 2 ‰ of them carry an attack fragment. Every benign line holds
// rule keywords ("GET ", "Host: "), so prefilter candidate windows cover
// most bytes.
func genTraffic(size int, seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{Name: "traffic", Data: make([]byte, 0, size+256),
		kindLine: func(k int) []byte { return fmt.Appendf(nil, "\nGET %s HTTP/1.1\n", attacks[k]) }}
	for len(c.Data) < size {
		if r.Intn(1000) < attackPerMille {
			k := r.Intn(len(attacks))
			off := len(c.Data)
			c.Data = fmt.Appendf(c.Data, "GET %s HTTP/1.1\n", attacks[k])
			c.Planted = append(c.Planted, attackSpan{off, len(c.Data), k})
			continue
		}
		c.Data = append(benignLine(c.Data, r), '\n')
	}
	return c
}

// genPayload builds about size bytes of base64-like frames with the same
// planted attacks: almost no byte belongs to a rule literal, so the
// prefilter discards nearly everything before the automaton runs.
func genPayload(size int, seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{Name: "payload", Data: make([]byte, 0, size+256),
		kindLine: func(k int) []byte { return fmt.Appendf(nil, "\nframe/000000/%s\n", attacks[k]) }}
	for len(c.Data) < size {
		off := len(c.Data)
		c.Data = fmt.Appendf(c.Data, "frame/%06d/", r.Intn(1000000))
		if r.Intn(1000) < attackPerMille {
			k := r.Intn(len(attacks))
			c.Data = append(append(c.Data, attacks[k]...), '\n')
			c.Planted = append(c.Planted, attackSpan{off, len(c.Data), k})
			continue
		}
		for n := 32 + r.Intn(88); n > 0; n-- {
			c.Data = append(c.Data, payloadAlphabet[r.Intn(len(payloadAlphabet))])
		}
		c.Data = append(c.Data, '\n')
	}
	return c
}

const (
	gapRules  = 64
	gapFiller = "abcdefghijklmnop"
)

// genGapmix builds about size bytes of traffic lines for the gap64 rule
// set (rule i is q<i>.{0,8+i%9}z<7i>): half the lines carry a planted
// near-miss — a rule's opening token and 0–20 filler bytes — and one in
// eight of those is completed with the rule's closing token, so the lazy
// product automaton keeps leaving its start state without most lines
// matching. Planted records the completed lines whose filler fits the
// rule's gap; Kind is the rule index there.
func genGapmix(size int, seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{Name: "gapmix", Data: make([]byte, 0, size+256),
		kindLine: func(i int) []byte { return fmt.Appendf(nil, "\nHost: example.com q%02xz%02x\n", i, (i*7)%256) }}
	for len(c.Data) < size {
		off := len(c.Data)
		c.Data = benignLine(c.Data, r)
		if r.Intn(2) == 0 {
			i := r.Intn(gapRules)
			fill := r.Intn(21)
			c.Data = fmt.Appendf(c.Data, " q%02x", i)
			for n := fill; n > 0; n-- {
				c.Data = append(c.Data, gapFiller[r.Intn(len(gapFiller))])
			}
			if r.Intn(8) == 0 {
				c.Data = fmt.Appendf(c.Data, "z%02x", (i*7)%256)
				if fill <= 8+i%9 {
					c.Planted = append(c.Planted, attackSpan{off, len(c.Data) + 1, i})
				}
			}
		}
		c.Data = append(c.Data, '\n')
	}
	return c
}

// slices cuts n inputs of size bytes out of c at seeded offsets, keeping
// for each the planted spans that lie wholly inside it (rebased).
func (c *corpus) slices(n, size int, seed int64) []*corpus {
	r := rand.New(rand.NewSource(seed))
	out := make([]*corpus, n)
	for i := range out {
		off := r.Intn(len(c.Data) - size)
		s := &corpus{Name: fmt.Sprintf("%s[%d:+%d]", c.Name, off, size), Data: c.Data[off : off+size], kindLine: c.kindLine}
		for _, p := range c.Planted {
			if p.Off >= off && p.End <= off+size {
				s.Planted = append(s.Planted, attackSpan{p.Off - off, p.End - off, p.Kind})
			}
		}
		out[i] = s
	}
	return out
}
