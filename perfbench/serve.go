package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"specdis/internal/bench"
	"specdis/internal/serve"
)

// daemon is an in-process spdd: serve.New behind a real loopback listener,
// reached through one keep-alive http.Client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startDaemon boots a server with cfg on 127.0.0.1.
func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  serve.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 4, MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute,
		}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the server, closes the listener and idle connections, and
// waits for the serving goroutine to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Drain(ctx)
	_ = d.hs.Shutdown(ctx)
	d.client.CloseIdleConnections()
	<-d.done
}

// evalReply is one /v1/eval round trip as the client saw it.
type evalReply struct {
	Result    json.RawMessage
	Stats     serve.EvalStats
	LatencyMS float64
}

// eval posts one request and reads the whole reply.
func (d *daemon) eval(q evalReq) (*evalReply, error) {
	body := serve.EvalRequest{Pipeline: q.Pipeline, MemLat: q.MemLat, Lint: q.Lint}
	if q.Source {
		body.Source = bench.ByName(q.Bench).Source
	} else {
		body.Bench = q.Bench
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/v1/eval", "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, err
	}
	rep := &evalReply{LatencyMS: float64(lat) / float64(time.Millisecond)}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s: HTTP %d: %s", q.key(), resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var out struct {
		Result json.RawMessage `json:"result"`
		Stats  serve.EvalStats `json:"stats"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return rep, fmt.Errorf("%s: %w", q.key(), err)
	}
	rep.Result, rep.Stats = out.Result, out.Stats
	return rep, nil
}

// metrics reads GET /metrics.
func (d *daemon) metrics() (*serve.Metrics, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkedEval posts q and fails unless the reply is a 200 whose result
// equals the reference byte for byte.
func (d *daemon) checkedEval(q evalReq, refs map[string]json.RawMessage) (*evalReply, error) {
	rep, err := d.eval(q)
	if err != nil {
		return rep, err
	}
	want, ok := refs[q.key()]
	if !ok {
		return rep, fmt.Errorf("%s: no reference result", q.key())
	}
	return rep, sameBytes(q.key()+" result", rep.Result, want)
}
