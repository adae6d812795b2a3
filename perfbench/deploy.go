package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	ldp "repro"
)

// numShards is the deployment's shard count: two durable collectors, each
// on its own loopback listener, behind one router.
const numShards = 2

// shardNode is one durable collector shard and its HTTP listener.
type shardNode struct {
	col  *ldp.Collector
	svc  *ldp.CollectorService
	srv  *server
	addr string // host:port, the Peer its spans carry
}

// stack is the real serving stack in one process: shards with the ldpserve
// WAL defaults (no fsync, a checkpoint every ldp.DefaultCheckpointEvery
// reports), and a router (Fleet + FleetServer with queries enabled) in
// front. Handlers and the router's shard client are wrapped for tracing;
// the wrappers cost one atomic load while the recorder is off.
type stack struct {
	shards  []*shardNode
	fleet   *ldp.Fleet
	router  *ldp.FleetServer
	srv     *server
	url     string
	routerT *http.Transport
}

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	done chan struct{} // closed once Serve has returned
}

// serve listens on a loopback port and serves the handler handler(addr)
// returns, so a wrapper can name the listener it serves on.
func serve(handler func(addr string) http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := ln.Addr().String()
	s := &server{srv: &http.Server{Handler: handler(addr), ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Shutdown
	}()
	return s, addr, nil
}

// stop shuts the server down and waits for its goroutine.
func (s *server) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// deploy starts the stack with its shards' data under dir.
func deploy(ctx context.Context, agg ldp.Aggregator, w ldp.Workload, dir string, rec *recorder) (_ *stack, err error) {
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	info := ldp.MechanismInfoOf(agg)
	for i := 0; i < numShards; i++ {
		col, err := ldp.NewCollector(agg, w, 0, ldp.WithDurability(filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			ldp.CheckpointEvery(ldp.DefaultCheckpointEvery)))
		if err != nil {
			return nil, err
		}
		node := &shardNode{col: col}
		st.shards = append(st.shards, node)
		if node.svc, err = ldp.NewCollectorService(col, info); err != nil {
			return nil, err
		}
		// A shard span carries the shard's own address as its peer.
		if node.srv, node.addr, err = serve(func(addr string) http.Handler {
			return tracedHandler(rec, "shard", addr, node.svc.Handler())
		}); err != nil {
			return nil, err
		}
	}

	// The fleet's client gets the transport it would use by default
	// (http.DefaultTransport's settings), wrapped for timing.
	st.routerT = http.DefaultTransport.(*http.Transport).Clone()
	if st.fleet, err = ldp.NewFleet(agg, w, ldp.WithFleetHTTPClient(&http.Client{
		Transport: &tracedTransport{rec: rec, base: st.routerT},
	})); err != nil {
		return nil, err
	}
	for _, sh := range st.shards {
		if err := st.fleet.Register(ctx, "http://"+sh.addr); err != nil {
			return nil, err
		}
	}
	for _, m := range st.fleet.Members() {
		if !m.Ready {
			return nil, fmt.Errorf("shard %s not ready after registration", m.Endpoint)
		}
	}
	if st.router, err = ldp.NewFleetServer(st.fleet); err != nil {
		return nil, err
	}
	if err := st.router.EnableQueries(agg); err != nil {
		return nil, err
	}
	var addr string
	if st.srv, addr, err = serve(func(string) http.Handler {
		return tracedHandler(rec, "router", "", st.router.Handler())
	}); err != nil {
		return nil, err
	}
	st.url = "http://" + addr
	return st, nil
}

// close stops the router, then the shards, and closes their durable
// stores. Every server goroutine has returned when it does.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.srv != nil {
		errs = append(errs, st.srv.stop(ctx))
	}
	if st.fleet != nil {
		errs = append(errs, st.fleet.Close())
	}
	if st.routerT != nil {
		st.routerT.CloseIdleConnections()
	}
	for _, sh := range st.shards {
		if sh.srv != nil {
			errs = append(errs, sh.srv.stop(ctx))
		}
		errs = append(errs, sh.col.Close())
	}
	return errors.Join(errs...)
}
