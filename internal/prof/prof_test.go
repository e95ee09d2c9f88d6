package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagsWriteProfiles parses both flags, starts and stops the profiles,
// and requires each file to hold a non-empty profile.
func TestFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var f Flags
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile, got %v (err %v)", filepath.Base(path), st, err)
		}
	}
}

// TestFlagsOffByDefault: with neither flag set, Start and stop touch no file.
func TestFlagsOffByDefault(t *testing.T) {
	var f Flags
	f.Register(flag.NewFlagSet("prof", flag.ContinueOnError))
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartBadPath: an unwritable CPU profile path fails Start.
func TestStartBadPath(t *testing.T) {
	f := Flags{CPU: filepath.Join(t.TempDir(), "missing", "cpu.prof")}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start with an unwritable path succeeded")
	}
}
