//go:build ignore

// Racetimes reads `go test -json` on stdin and writes what `go test` would:
// each package's result line as it finishes, the output of every test and
// package that failed, and at the end whatever a test that never finished
// wrote. Then it writes each test's mean time per run, slowest first, so that
// `make race`'s RACE_TWENTY lines show what each of their tests costs. It
// leaves the exit status to go test:
//
//	go test -race -count=20 -json -run '...' ./internal/catalog/ | go run racetimes.go
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type event struct {
	Action  string
	Package string
	Test    string
	Output  string
	Elapsed float64
}

type key struct{ pkg, test string }

type timing struct {
	runs int
	secs float64
}

func main() {
	output := map[key][]string{} // what the current run of each test or package has written
	times := map[key]*timing{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Action == "" {
			fmt.Println(sc.Text()) // not a test event: a build error, say
			continue
		}
		k := key{e.Package, e.Test}
		switch e.Action {
		case "run":
			output[k] = output[k][:0]
		case "output":
			output[k] = append(output[k], e.Output)
		case "build-output":
			fmt.Print(e.Output)
		case "pass", "fail", "skip":
			if e.Action == "fail" {
				fmt.Print(strings.Join(output[k], ""))
			}
			delete(output, k)
			switch {
			case e.Test == "" && e.Action == "pass": // a failed one's output ends with its FAIL line
				fmt.Printf("ok  \t%s\t%.3fs\n", e.Package, e.Elapsed)
			case e.Test != "" && e.Action != "skip" && !strings.Contains(e.Test, "/"):
				t := times[k]
				if t == nil {
					t = &timing{}
					times[k] = t
				}
				t.runs++
				t.secs += e.Elapsed
			}
		}
	}
	if err := sc.Err(); err != nil { // a line past the buffer: pass the rest through
		fmt.Fprintln(os.Stderr, "racetimes:", err)
		io.Copy(os.Stdout, os.Stdin)
	}
	// A test that never finished (a -timeout panic, say) got no action to
	// print its output on.
	left := make([]key, 0, len(output))
	for k := range output {
		left = append(left, k)
	}
	sort.Slice(left, func(i, j int) bool {
		return left[i].pkg < left[j].pkg || left[i].pkg == left[j].pkg && left[i].test < left[j].test
	})
	for _, k := range left {
		fmt.Print(strings.Join(output[k], ""))
	}
	keys := make([]key, 0, len(times))
	for k := range times {
		keys = append(keys, k)
	}
	mean := func(k key) float64 { return times[k].secs / float64(times[k].runs) }
	sort.Slice(keys, func(i, j int) bool { return mean(keys[i]) > mean(keys[j]) })
	fmt.Println("time per run (mean over the runs):")
	for _, k := range keys {
		fmt.Printf("  %8.3fs  %3d runs  %s %s\n", mean(k), times[k].runs, strings.TrimPrefix(k.pkg, "unitycatalog/"), k.test)
	}
}
