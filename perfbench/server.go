package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"

	"smoothproc/internal/report"
	"smoothproc/internal/service"
)

// server is an in-process smoothd: service.New(...).Handler() behind a
// real HTTP server on a loopback port, as the daemon runs it.
type server struct {
	svc  *service.Server
	http *http.Server
	base string
	done chan error
}

func startServer(cfg service.Config) (*server, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and its connections, then drains the service
// (service.Server.Shutdown) and waits for the serving goroutine.
func (s *server) stop(ctx context.Context) error {
	herr := s.http.Shutdown(ctx)
	serr := s.svc.Shutdown(ctx)
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	return errors.Join(herr, serr)
}

// maxConns is the client's connection bound: no more than the box's two
// cores' worth of concurrent requests come from the load generator.
const maxConns = 2

// client is the benchmark's HTTP client, bounded to maxConns connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends a JSON body and decodes a 200 response into out. A non-200
// status is returned with the server's error text.
func (c *client) post(ctx context.Context, url string, body any, header http.Header, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	return c.do(req, out)
}

func (c *client) get(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", req.Method, req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// metricsItem reads one counter from a GET /metrics snapshot.
func metricsItem(st report.Stats, section, item string) int64 {
	for _, s := range st.Sections {
		if s.Name != section {
			continue
		}
		for _, it := range s.Items {
			if it.Name == item {
				return it.Value
			}
		}
	}
	return 0
}
