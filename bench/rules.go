package main

import (
	"bytes"
	"embed"
	"fmt"

	"repro/internal/serve"
	"repro/sfa"
)

// The rule sets are checked in and embedded, so the benchmark binary
// carries its own inputs and editing internal/snort cannot change a
// workload. inputs_test.go pins each file's SHA-256.
//
//go:embed rules/*.rules
var rulesFS embed.FS

// ruleFile returns the raw bytes of rules/<name>.rules — the body the
// serve workloads PUT to the server.
func ruleFile(name string) []byte {
	b, err := rulesFS.ReadFile("rules/" + name + ".rules")
	if err != nil {
		panic(fmt.Sprintf("bench: embedded rule set %q missing: %v", name, err))
	}
	return b
}

// ruleDefs parses an embedded rule file with the parser the server uses.
func ruleDefs(name string) []sfa.RuleDef {
	defs, err := serve.ParseRules(bytes.NewReader(ruleFile(name)))
	if err != nil {
		panic(fmt.Sprintf("bench: embedded rule set %q does not parse: %v", name, err))
	}
	return defs
}
