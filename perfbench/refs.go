package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"specdis/internal/serve"
)

// The reference outputs every op is checked against, generated once from
// the oracle engines (see README.md, "References"):
//
//   - paper_report.txt is `spdbench -exec tree -trace interp` stdout;
//   - serve_results.txt holds one line per /v1/eval request form,
//     "<key> <result JSON>", from an in-process server on the tree walker.
//
//go:embed testdata/paper_report.txt testdata/serve_results.txt
var refFS embed.FS

func paperRef() ([]byte, error) { return refFS.ReadFile("testdata/paper_report.txt") }

func serveRefs() (map[string]json.RawMessage, error) {
	data, err := refFS.ReadFile("testdata/serve_results.txt")
	if err != nil {
		return nil, err
	}
	out := map[string]json.RawMessage{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !json.Valid([]byte(val)) {
			return nil, fmt.Errorf("serve reference line %q is not \"<key> <json>\"", sc.Text())
		}
		out[key] = json.RawMessage(val)
	}
	return out, sc.Err()
}

// genServeRefs evaluates every distinct request form on an in-process
// server running the reference tree walker and writes the results to path.
func genServeRefs(path string) error {
	d, err := startDaemon(serve.Config{Exec: "tree"})
	if err != nil {
		return err
	}
	defer d.stop()
	// Sequential on purpose: the daemon deduplicates in-flight requests by
	// source hash, so a concurrent named and source request for one cell
	// would share one reply, with the other form's "bench" field.
	var lines []string
	for _, q := range allReqs() {
		rep, err := d.eval(q)
		if err != nil {
			return err
		}
		lines = append(lines, q.key()+" "+string(rep.Result))
	}
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
