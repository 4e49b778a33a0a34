package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/server"
	"gpm/internal/wal"
)

// graphName is the name every deployment binds its graph under.
const graphName = "g"

// The cmd/gpmd flag defaults the benchmark deploys with: -cache-bytes
// 64 MiB, -timeout 30s, -oracle auto, -workers 0 (GOMAXPROCS) and
// -wal-sync always.
const (
	gpmdCacheBytes = 64 << 20
	gpmdTimeout    = 30 * time.Second
)

// deployment is one gpmd request path as cmd/gpmd builds it: a
// server.Server bound to one graph, behind a loopback http.Server.
type deployment struct {
	srv     *server.Server
	wal     *wal.WAL // nil without a WAL directory
	httpSrv *http.Server
	url     string
	tr      *tracer // nil on untraced runs
	closed  bool
	// openBind is the time from opening the WAL (when there is one)
	// through Bind: after a crash, log scan plus snapshot load and replay.
	openBind time.Duration
}

// deploy loads the graph file, binds it the way cmd/gpmd does and starts
// serving on a loopback port. With walDir it opens (and recovers) the
// log first and takes the start-up snapshot after binding.
func deploy(graphPath, walDir string, snapEvery int, tr *tracer) (*deployment, error) {
	g, err := gpm.LoadGraphFile(graphPath)
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	cfg := server.Config{DefaultTimeout: gpmdTimeout, CacheBytes: gpmdCacheBytes}
	d := &deployment{tr: tr}
	start := time.Now()
	if walDir != "" {
		w, rec, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		d.wal = w
		cfg.WAL, cfg.Recovery, cfg.SnapshotEvery = w, rec, snapEvery
	}
	d.srv = server.New(cfg)
	if err := d.srv.Bind(graphName, g, gpm.WithOracle(gpm.OracleAuto)); err != nil {
		d.close()
		return nil, fmt.Errorf("bind: %w", err)
	}
	d.openBind = time.Since(start)
	if d.wal != nil {
		if err := d.srv.Checkpoint(); err != nil {
			d.close()
			return nil, fmt.Errorf("start-up snapshot: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = d.srv
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	d.httpSrv = &http.Server{Handler: h}
	go d.httpSrv.Serve(ln)
	d.url = "http://" + ln.Addr().String()
	return d, nil
}

// client returns a typed client whose transport opens at most conns
// connections, and the transport so the caller can close them.
func (d *deployment) client(conns int) (*client.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	var rt http.RoundTripper = t
	if d.tr != nil {
		rt = requestIDTransport{t}
	}
	return client.New(d.url, client.WithHTTPClient(&http.Client{Transport: rt})), t
}

// close shuts the deployment down in order: listener, queries, log. It
// takes no parting snapshot (cmd/gpmd takes one on SIGTERM), so after
// close the WAL directory is what a killed process leaves behind.
// Closing twice is a no-op.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	d.srv.Close()
	if d.wal != nil {
		d.wal.Close()
	}
}

// requestIDHeader carries the benchmark's request id from the client
// span to the server span on traced runs.
const requestIDHeader = "X-Bench-Request"

type requestIDKey struct{}

// withRequestID tags ctx with a request id for the traced transport.
func withRequestID(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestIDTransport copies the context's request id into a header.
type requestIDTransport struct{ base http.RoundTripper }

func (t requestIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(requestIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestIDHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}
