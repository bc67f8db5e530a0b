package serve

// GET /v1/report: the full paper evaluation — Tables 6-1 through 6-3 and
// Figures 6-2 through 6-4 — as one text document, byte-identical to spdbench
// stdout for the same configuration. The CI serve-smoke job byte-diffs the
// two; determinism across tiers, caches and recovered faults is the repo's
// core invariant and this endpoint is where a service client observes it.
//
// A report is one admission slot like any eval (it is the most expensive
// request the daemon serves), runs on the request context — a disconnected
// client cancels the sweep and the scheduler skips its queued cells — and
// is rendered into a buffer first so a mid-sweep failure is a typed error,
// never a truncated 200.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/exper"
	"specdis/internal/sim"
)

// handleReport serves GET /v1/report. Query parameters:
//
//   - bench: restrict to one suite benchmark (default: the full suite);
//   - only: emit a single section (table61, table62, table63, fig62, fig63,
//     fig64; default: all six in spdbench order);
//   - exec: execution tier (native, bcode, tree; default: the server's).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	done, ok := s.begin(w)
	if !ok {
		return
	}
	defer done()
	s.met.reports.Add(1)

	q := r.URL.Query()
	benches := bench.All()
	if name := q.Get("bench"); name != "" {
		b := bench.ByName(name)
		if b == nil {
			writeError(w, badRequest(fmt.Sprintf("unknown benchmark %q", name)))
			return
		}
		benches = []*bench.Benchmark{b}
	}
	only := q.Get("only")
	known := only == ""
	names := make([]string, len(exper.Sections))
	for i, sec := range exper.Sections {
		known = known || sec.Name == only
		names[i] = sec.Name
	}
	if !known {
		writeError(w, badRequest(fmt.Sprintf("unknown section %q (want one of %s)", only, strings.Join(names, ", "))))
		return
	}
	exec := s.exec
	if name := q.Get("exec"); name != "" {
		m, err := sim.ParseExecMode(name)
		if err != nil {
			writeError(w, badRequest(err.Error()))
			return
		}
		exec = m
	}

	// The report shares the eval path's budgets: the server's fuel cap and
	// deadline cap bound the sweep, and the client's disconnect cancels it.
	if apiErr := s.adm.acquire(r.Context()); apiErr != nil {
		if apiErr.Status == http.StatusTooManyRequests {
			s.met.admissionRejections.Add(1)
		}
		writeError(w, apiErr)
		return
	}
	defer s.adm.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DeadlineCap)
	defer cancel()
	eng := s.runner(ctx, exec, s.cfg.FuelCap, benches...)

	var buf bytes.Buffer
	err := func() error {
		for _, sec := range exper.Sections {
			if only != "" && only != sec.Name {
				continue
			}
			if err := sec.Render(eng, &buf); err != nil {
				return err
			}
			fmt.Fprintln(&buf)
		}
		return nil
	}()
	s.met.absorb(eng.Stats())
	if err != nil {
		s.met.evalErrors.Add(1)
		writeError(w, errorFor(err))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
