package unitycatalog_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents a newcomer reads in one sitting are held where they stand.
// A change that grows DESIGN.md or EXPERIMENTS.md must raise its ceiling
// here, in its own diff; one that shrinks a document lowers the ceiling to
// the new size, so the room it made is not spent unnoticed.
const (
	designMaxBytes      = 97321
	experimentsMaxBytes = 147782
	// Every CHANGES.md entry from PR changesRatchetFrom on is at most
	// changesMaxLines lines, and from PR changesBytesFrom on at most
	// changesMaxBytes bytes: a summary, not a second copy of the diff.
	changesRatchetFrom = 37
	changesMaxLines    = 5
	changesBytesFrom   = 40
	changesMaxBytes    = 1600
)

func TestDocumentSizes(t *testing.T) {
	for _, doc := range []struct {
		name string
		max  int64
	}{{"DESIGN.md", designMaxBytes}, {"EXPERIMENTS.md", experimentsMaxBytes}} {
		fi, err := os.Stat(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d bytes, over its ceiling of %d (docs_test.go): shorten it, or raise the ceiling in the same change", doc.name, fi.Size(), doc.max)
		}
	}
}

// TestChangesEntryLength reads CHANGES.md as entries: a line "- PR <n>…" and
// the indented lines under it, each counted with its newline.
func TestChangesEntryLength(t *testing.T) {
	f, err := os.Open("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[int]int{} // PR number → lines in its entry
	size := map[int]int{}  // PR number → bytes in its entry
	pr := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "- PR "):
			digits := strings.TrimPrefix(line, "- PR ")
			if i := strings.IndexFunc(digits, func(r rune) bool { return r < '0' || r > '9' }); i >= 0 {
				digits = digits[:i]
			}
			if pr, err = strconv.Atoi(digits); err != nil {
				t.Fatalf("CHANGES.md: entry %q has no PR number", line)
			}
			lines[pr]++
			size[pr] += len(line) + 1
		case pr != 0 && strings.HasPrefix(line, " "):
			lines[pr]++
			size[pr] += len(line) + 1
		default:
			pr = 0
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("CHANGES.md: no entry read")
	}
	for n, count := range lines {
		if n >= changesRatchetFrom && count > changesMaxLines {
			t.Errorf("CHANGES.md: the PR %d entry is %d lines, over %d", n, count, changesMaxLines)
		}
		if n >= changesBytesFrom && size[n] > changesMaxBytes {
			t.Errorf("CHANGES.md: the PR %d entry is %d bytes, over %d", n, size[n], changesMaxBytes)
		}
	}
}

// designStdlib are the dotted names DESIGN.md gives that belong to Go's
// standard library, not to this repository, each with why it is named.
var designStdlib = map[string]string{
	"context.Context":      "what every request path carries",
	"testing.AllocsPerRun": "how the allocation gates measure",
}

// TestDesignNamesOnlyWhatExists: every backticked dotted name in DESIGN.md —
// `pkg.Name`, `Type.Method`, `x.Field()`, with or without arguments — names
// something that exists: its last part occurs as a word in the repository's
// non-test Go, or for a Test or Benchmark function in its test files. File
// names (.go, .md, .json, .wal) are not names; standard-library names are
// listed in designStdlib.
func TestDesignNamesOnlyWhatExists(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	code, tests := map[string]bool{}, map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build output
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		into := code
		if strings.HasSuffix(path, "_test.go") {
			into = tests
		}
		for _, w := range word.FindAll(src, -1) {
			into[string(w)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dotted := regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(.*\))?$`)
	checked := 0
	for _, span := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(string(design), -1) {
		m := dotted.FindStringSubmatch(span[1])
		if m == nil {
			continue
		}
		name := m[1]
		last := name[strings.LastIndexByte(name, '.')+1:]
		switch {
		case last == "go" || last == "md" || last == "json" || last == "wal":
			continue
		case designStdlib[name] != "":
		case strings.HasPrefix(last, "Test") || strings.HasPrefix(last, "Benchmark"):
			if !tests[last] {
				t.Errorf("DESIGN.md names `%s`, and no test file has %s", span[1], last)
			}
		case !code[last]:
			t.Errorf("DESIGN.md names `%s`, and no non-test Go has %s", span[1], last)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("read %d dotted names in DESIGN.md, expected well over 100", checked)
	}
}
