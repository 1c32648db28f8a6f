package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses: fields are counted from
	// the last ')'. utime = 1234, stime = 766 ticks.
	stat := "4242 (sfa serve) (x)) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 766 0 0 20 0 5 0 12345 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 20 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b 0"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("%q: want an error", bad)
		}
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	kb, err := procStatusKB(os.Getpid(), "VmRSS")
	if err != nil || kb <= 0 {
		t.Errorf("VmRSS = %d kB, %v", kb, err)
	}
}
