package core

import (
	"testing"

	"repro/internal/dfa"
)

func TestWidthPredicates(t *testing.T) {
	if !FitsU8(256) || FitsU8(257) {
		t.Error("FitsU8 boundary wrong")
	}
	if !FitsU16(1<<16) || FitsU16(1<<16+1) {
		t.Error("FitsU16 boundary wrong")
	}
}

// TestDFATable256AgreesWithNextByte checks the one DFA table builder at
// every width against the class-indexed table it expands.
func TestDFATable256AgreesWithNextByte(t *testing.T) {
	for _, pat := range []string{"([0-4]{2}[5-9]{2})*", "(a|b)*abb", ".*(GET|POST) /[a-z]{2,6}.*"} {
		d := dfa.MustCompilePattern(pat)
		wide := DFATable256[int32](d)
		t16 := DFATable256[uint16](d)
		t8 := DFATable256[uint8](d)
		if len(wide) != d.NumStates*256 || len(t16) != len(wide) || len(t8) != len(wide) {
			t.Fatalf("%s: table lengths %d/%d/%d for %d states", pat, len(wide), len(t16), len(t8), d.NumStates)
		}
		for q := int32(0); q < int32(d.NumStates); q++ {
			for b := 0; b < 256; b++ {
				want := d.NextByte(q, byte(b))
				i := int(q)<<8 | b
				if wide[i] != want || int32(t16[i]) != want || int32(t8[i]) != want {
					t.Fatalf("%s: (%d, %d) → i32 %d u16 %d u8 %d, NextByte %d", pat, q, b, wide[i], t16[i], t8[i], want)
				}
			}
		}
	}
}

func TestDSFAWidthTablesAgree(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{2}[5-9]{2})*", "(a|b)*abb"} {
		d := dfa.MustCompilePattern(pat)
		s, err := BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		wide := DSFATable256[int32](s)
		t16 := DSFATable256[uint16](s)
		var t8 []uint8
		if FitsU8(s.NumStates) {
			t8 = DSFATable256[uint8](s)
		}
		for i := range wide {
			if int32(t16[i]) != wide[i] {
				t.Fatalf("%s: u16[%d] = %d, i32 = %d", pat, i, t16[i], wide[i])
			}
			if t8 != nil && int32(t8[i]) != wide[i] {
				t.Fatalf("%s: u8[%d] = %d, i32 = %d", pat, i, t8[i], wide[i])
			}
		}
	}
}
