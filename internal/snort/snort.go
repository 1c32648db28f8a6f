// Package snort provides the ruleset workload for the Fig. 3 size study.
//
// The paper measured 20 312 pcre patterns extracted from the SNORT
// ruleset snapshot snortrules-snapshot-2940 (03 Feb 2013). That snapshot
// is a registration-gated download and is not redistributable, so this
// package substitutes a synthetic corpus with the same structural mix:
// anchored URI paths, literal payload fragments with
// hex escapes, protocol keyword alternations, character-class runs with
// bounded counters, and a small admixture of `.*`-chained patterns — the
// family the paper singles out as the only source of over-cubic D-SFA
// growth. A curated set of hand-written realistic rules seeds the corpus;
// the generator extends it deterministically from a seed.
package snort

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// Rule is one synthetic detection pattern.
type Rule struct {
	ID       int
	Pattern  string       // regex source (no /…/ delimiters)
	Flags    syntax.Flags // pcre modifiers
	Category string       // generator family, for reporting
}

// Curated returns the hand-written core of the corpus: patterns shaped
// like real SNORT web/protocol rules. They all parse with this module's
// parser and all have modest DFAs.
func Curated() []Rule {
	patterns := []struct {
		p   string
		f   syntax.Flags
		cat string
	}{
		{`^GET /index\.php\?id=\d{1,6}`, 0, "uri"},
		{`^POST /cgi-bin/[a-z]{2,12}\.cgi`, 0, "uri"},
		{`^HEAD /admin/[a-z_]{1,16}\.asp`, 0, "uri"},
		{`^/scripts/\.\./\.\./winnt/system32/`, 0, "uri"},
		{`^/phpmyadmin/index\.php`, syntax.FoldCase, "uri"},
		{`^/wp-login\.php\?action=register`, 0, "uri"},
		{`^/etc/passwd`, 0, "uri"},
		{`^/proc/self/environ`, 0, "uri"},
		{`User-Agent\x3a [A-Za-z0-9 /\.;\)\(-]{1,64}MSIE`, 0, "header"},
		{`Host\x3a [a-z0-9\.-]{4,40}\x0d\x0a`, 0, "header"},
		{`Content-Length\x3a \d{7,}`, 0, "header"},
		{`Authorization\x3a Basic [A-Za-z0-9=\+/]{4,128}`, 0, "header"},
		{`Cookie\x3a [^\x0d\x0a]{128,256}`, 0, "header"},
		{`X-Forwarded-For\x3a [0-9\.,' ]{1,64}`, 0, "header"},
		{`(GET|POST|HEAD|PUT|DELETE|TRACE) `, 0, "alt"},
		{`(admin|root|guest)\x3a\x3a`, 0, "alt"},
		{`(cmd|command)\.exe`, syntax.FoldCase, "alt"},
		{`(select|union|insert|update)\x20`, syntax.FoldCase, "alt"},
		{`(wget|curl|fetch) http`, 0, "alt"},
		{`\x90{8,32}`, 0, "payload"},
		{`\x00\x01\x86\xa0`, 0, "payload"},
		{`\xff\xfe\x00\x00MZ`, 0, "payload"},
		{`\x7fELF[\x01\x02]`, 0, "payload"},
		{`PK\x03\x04`, 0, "payload"},
		{`%u9090%u6858`, 0, "payload"},
		{`\xeb[\x00-\xff]\x5e`, 0, "payload"},
		{`/bin/sh\x00`, 0, "payload"},
		{`\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}`, 0, "counter"},
		{`[0-9a-f]{32}`, 0, "counter"},
		{`A{100,}`, 0, "counter"},
		{`(\.\./){3,8}`, 0, "counter"},
		{`[%]{2}[0-9a-f]{2}[%]{2}[0-9a-f]{2}`, 0, "counter"},
		{`=[A-Za-z0-9\+/]{64}`, 0, "counter"},
		{`javascript\x3a`, syntax.FoldCase, "keyword"},
		{`eval\(unescape\(`, 0, "keyword"},
		{`document\.cookie`, 0, "keyword"},
		{`xp_cmdshell`, syntax.FoldCase, "keyword"},
		{`sc\.exe create`, 0, "keyword"},
		{`nc -l -p \d{2,5}`, 0, "keyword"},
		{`USER [a-z]{1,16}\x0d\x0aPASS `, 0, "keyword"},
		{`SITE EXEC`, syntax.FoldCase, "keyword"},
		{`\.\.%c0%af`, 0, "keyword"},
		{`<script[^>]{0,64}>`, syntax.FoldCase, "keyword"},
		{`onload=[a-z]{1,24}\(`, syntax.FoldCase, "keyword"},
		{`union.{1,32}select`, syntax.FoldCase | syntax.DotAll, "dotchain"},
		{`.*AUTH.*INFO`, syntax.DotAll, "dotchain"},
		{`.*USER.*PASS.*LIST`, syntax.DotAll, "dotchain"},
		{`.*(T.*Y.*P.*P.*R.*O.*M.*P.*T)`, syntax.DotAll, "dotchain"},
		{`.*%n.*%n`, syntax.DotAll, "dotchain"},
		{`filename=[^\x0d\x0a]{1,64}\.(exe|scr|pif|bat)`, 0, "mixed"},
		{`name\x3d\x22[a-z]{1,12}\x22\x3b`, 0, "mixed"},
		{`[\x80-\xff]{16,}`, 0, "mixed"},
		{`(\x0d\x0a){2}[\x00-\x08]{4,}`, 0, "mixed"},
		{`id=[0-9]{1,8}('|%27)`, 0, "mixed"},
		{`ping -[a-z] \d{3,5}`, 0, "mixed"},
		{`open\x20\d{1,3}\.\d{1,3}`, 0, "mixed"},
		{`RETR [a-zA-Z0-9_\.-]{1,32}\x0d`, 0, "mixed"},
		{`MAIL FROM\x3a\x20<[^>]{64,}`, syntax.FoldCase, "mixed"},
		{`EXPN (root|decode)`, 0, "mixed"},
		{`TRACE \x2f HTTP`, 0, "mixed"},
	}
	rules := make([]Rule, len(patterns))
	for i, p := range patterns {
		rules[i] = Rule{ID: i, Pattern: p.p, Flags: p.f, Category: p.cat}
	}
	return rules
}

// ScanSample returns up to n curated rules for the multi-pattern scan
// workload (the combined/sharded RuleSet engines, their oracle
// cross-checks, and the harness throughput table). Rules are filtered
// the way the paper filters its SNORT corpus (Sect. VI-A skips DFAs over
// 1000 states): each rule is bracketed for substring search — the scan
// workload's semantics — and kept only when its DFA stays under
// scanSampleDFACap. That drops the "dotchain" family and counted-window
// rules like Cookie\x3a [^\x0d\x0a]{128,256}, whose window class
// contains its own trigger so subset construction explodes
// exponentially; such rules need the lazy engine, not an eager combined
// automaton.
func ScanSample(n int) []Rule {
	sample := scanSampleOnce()
	if n > len(sample) {
		n = len(sample)
	}
	return sample[:n]
}

// scanSampleDFACap mirrors the paper's 1000-state SNORT filter.
const scanSampleDFACap = 1000

// scanSampleSFACap drops rules whose own D-SFA explodes: they would
// stall both the isolated oracle and the planner's dedicated-shard
// fallback, neither of which caps a lone rule.
const scanSampleSFACap = 4096

// scanSampleOnce computes (once — the capped dry runs cost real time)
// the filtered curated sample.
var scanSampleOnce = sync.OnceValue(func() []Rule {
	var out []Rule
	for _, r := range Curated() {
		if scannable(r) {
			out = append(out, r)
		}
	}
	return out
})

// scannable reports whether the rule's search-bracketed automata stay
// under the sample caps. The bracketing is the same syntax helper the
// public WithSearch option uses, so the filter judges exactly the
// automata a scanning RuleSet will build.
func scannable(r Rule) bool {
	node, err := syntax.Parse(r.Pattern, r.Flags)
	if err != nil {
		return false
	}
	node = syntax.BracketForSearch(node)
	a, err := nfa.Glushkov(node)
	if err != nil {
		return false
	}
	d, err := dfa.Determinize(a, 4*scanSampleDFACap)
	if err != nil {
		return false
	}
	m := dfa.Minimize(d)
	if m.LiveSize() > scanSampleDFACap {
		return false
	}
	_, err = core.BuildDSFA(m, scanSampleSFACap)
	return err == nil
}

// Generate returns a deterministic corpus of n rules: the curated set
// (repeated never) followed by generated rules drawn from the category
// mix below. The same (n, seed) always yields the same corpus.
//
// Category weights approximate the structural mix of SNORT web rules;
// "dotchain" is kept at a few percent, matching the paper's observation
// that only 1.4% of rules exceed |D|² and 6 of 20 312 exceed |D|³.
func Generate(n int, seed int64) []Rule {
	rules := Curated()
	if n <= len(rules) {
		return rules[:n]
	}
	r := rand.New(rand.NewSource(seed))
	g := &generator{r: r}
	for len(rules) < n {
		cat := g.pickCategory()
		rules = append(rules, Rule{
			ID:       len(rules),
			Pattern:  g.pattern(cat),
			Flags:    g.flags(cat),
			Category: cat,
		})
	}
	return rules
}

type generator struct {
	r *rand.Rand
}

// pickCategory draws from the weighted mix.
func (g *generator) pickCategory() string {
	x := g.r.Intn(100)
	switch {
	case x < 22:
		return "uri"
	case x < 40:
		return "header"
	case x < 55:
		return "keyword"
	case x < 67:
		return "payload"
	case x < 79:
		return "counter"
	case x < 89:
		return "alt"
	case x < 96:
		return "mixed"
	default:
		return "dotchain" // ~4%
	}
}

func (g *generator) flags(cat string) syntax.Flags {
	var f syntax.Flags
	if cat == "dotchain" {
		f |= syntax.DotAll
	}
	if g.r.Intn(5) == 0 {
		f |= syntax.FoldCase
	}
	return f
}

var (
	words = []string{
		"admin", "login", "index", "shell", "update", "config", "setup",
		"search", "view", "download", "upload", "api", "auth", "token",
		"passwd", "exec", "query", "report", "debug", "test", "cart",
		"payment", "session", "user", "account", "backup", "install",
	}
	exts     = []string{"php", "asp", "cgi", "jsp", "exe", "dll", "pl", "py"}
	headers  = []string{"User-Agent", "Host", "Referer", "Cookie", "Accept", "Content-Type"}
	keywords = []string{"SELECT", "UNION", "INSERT", "DROP", "EXEC", "PASS", "USER", "AUTH", "LIST", "RETR", "SITE", "EXPN"}
)

func (g *generator) word() string { return words[g.r.Intn(len(words))] }
func (g *generator) ext() string  { return exts[g.r.Intn(len(exts))] }
func (g *generator) kw() string   { return keywords[g.r.Intn(len(keywords))] }

// pattern builds one rule of the given family.
func (g *generator) pattern(cat string) string {
	r := g.r
	switch cat {
	case "uri":
		p := "^/" + g.word()
		for i, k := 0, r.Intn(3); i < k; i++ {
			p += "/" + g.word()
		}
		p += `\.` + g.ext()
		if r.Intn(2) == 0 {
			p += `\?` + g.word() + `=[a-z0-9]{1,` + itoa(1+r.Intn(16)) + `}`
		}
		return p
	case "header":
		h := headers[r.Intn(len(headers))]
		switch r.Intn(3) {
		case 0:
			return h + `\x3a [^\x0d\x0a]{` + itoa(16+r.Intn(240)) + `,}`
		case 1:
			return h + `\x3a [A-Za-z0-9 /\.;-]{1,` + itoa(8+r.Intn(120)) + `}` + g.word()
		default:
			return h + `\x3a \d{` + itoa(1+r.Intn(6)) + `,` + itoa(7+r.Intn(6)) + `}`
		}
	case "keyword":
		p := g.kw()
		if r.Intn(2) == 0 {
			p += `\x20` + g.word()
		}
		if r.Intn(3) == 0 {
			p += `\x3a`
		}
		return p
	case "payload":
		k := 2 + r.Intn(6)
		p := ""
		for i := 0; i < k; i++ {
			p += fmt.Sprintf(`\x%02x`, r.Intn(256))
		}
		if r.Intn(2) == 0 {
			p += `{` + itoa(1+r.Intn(4)) + `,` + itoa(8+r.Intn(24)) + `}`
		}
		return p
	case "counter":
		switch r.Intn(4) {
		case 0:
			return `[0-9a-f]{` + itoa(8+r.Intn(56)) + `}`
		case 1:
			return `\d{1,3}(\.\d{1,3}){` + itoa(1+r.Intn(3)) + `}`
		case 2:
			return `[A-Za-z0-9\+/]{` + itoa(16+r.Intn(112)) + `}=`
		default:
			return `(` + g.word() + `){` + itoa(2+r.Intn(6)) + `,}`
		}
	case "alt":
		k := 2 + r.Intn(4)
		p := "(" + g.word()
		for i := 1; i < k; i++ {
			p += "|" + g.word()
		}
		return p + ") "
	case "dotchain":
		// The pathological family: several .* in sequence (Sect. VI-A).
		k := 2 + r.Intn(4)
		p := g.kw()
		for i := 0; i < k; i++ {
			p += ".*" + g.kw()
		}
		return p
	default: // mixed
		return g.word() + `=[^\x0d\x0a]{1,` + itoa(16+r.Intn(48)) + `}\.(` +
			g.ext() + `|` + g.ext() + `)`
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
