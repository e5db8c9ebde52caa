package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"renaissance/internal/futures"
)

// Regression: Server.Close used to block forever in wg.Wait because
// serveConn goroutines sat in readFrame on clients that never disconnect.
// With conn tracking + drain force-close, Close must return within the
// bounded drain window.
func TestServerCloseNeverDisconnectingClient(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	srv.DrainTimeout = 50 * time.Millisecond

	// A rude peer: connects, sends one request, then just sits there.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn)
	if err := fc.writeFrame([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if resp, err := fc.readFrame(); err != nil || string(resp) != "hi" {
		t.Fatalf("roundtrip = (%q, %v)", resp, err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on a never-disconnecting client")
	}
}

// A service whose future never completes wedges the handler's drain; Close
// must still return, with ErrDrainTimeout.
func TestServerCloseWedgedService(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.NewPromise[[]byte]().Future() // never completed
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.DrainTimeout = 50 * time.Millisecond
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := newFrameConn(conn).writeFrame([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the server pick the request up

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDrainTimeout) {
			t.Errorf("close = %v, want ErrDrainTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on a wedged service")
	}
}

// Regression: the client pool channel was never closed, so a Call racing
// Close could park forever on <-c.pool. The race must also be clean under
// the race detector.
func TestClientCallCloseRace(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 10; round++ {
		cli, err := Dial(srv.Addr(), 2)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Either a clean response or a close-related error; the
				// point is that the call terminates.
				_, _ = cli.CallSync([]byte("x"))
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cli.Close()
		}()

		raceDone := make(chan struct{})
		go func() { wg.Wait(); close(raceDone) }()
		select {
		case <-raceDone:
		case <-time.After(10 * time.Second):
			t.Fatal("a Call racing Close parked forever")
		}
	}
}

func TestClientCallAfterCloseFailsFast(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cli.CallSync([]byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("call after close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call after close parked")
	}
}

// Per-call deadline: a service that never answers must fail the call with
// a timeout instead of blocking CallSync forever.
func TestClientPerCallDeadline(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.NewPromise[[]byte]().Future() // never completed
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.DrainTimeout = 50 * time.Millisecond
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 50 * time.Millisecond

	start := time.Now()
	_, err = cli.CallSync([]byte("never"))
	if err == nil {
		t.Fatal("call against silent service succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline not enforced: call took %v", elapsed)
	}

	// The timed-out connection was discarded; a redialed one still works
	// after the server starts answering. (Same client, fresh pool slot.)
	ok, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	cli2, err := Dial(ok.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	cli2.Timeout = time.Second
	if resp, err := cli2.CallSync([]byte("ok")); err != nil || string(resp) != "ok" {
		t.Errorf("healthy call = (%q, %v)", resp, err)
	}
}

// flakyEcho accepts connections, slamming the first n shut immediately and
// serving echo on the rest — a deterministic stand-in for transient
// connection failures.
func flakyEcho(t *testing.T, n int) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		accepted := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted++
			if accepted <= n {
				_ = conn.Close()
				continue
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				fc := newFrameConn(conn)
				for {
					req, err := fc.readFrame()
					if err != nil {
						return
					}
					if err := fc.writeFrame(req); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); wg.Wait() }
}

func TestClientNoRetryByDefault(t *testing.T) {
	addr, stop := flakyEcho(t, 1)
	defer stop()
	cli, err := Dial(addr, 1) // conn #1: doomed
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.CallSync([]byte("x")); err == nil {
		t.Error("call over a dead connection succeeded without retries")
	}
}

// The pool must not shrink across discarded connections: poolSize serial
// failures followed by recoveries still leave every slot usable.
func TestClientPoolSurvivesDiscards(t *testing.T) {
	addr, stop := flakyEcho(t, 4)
	defer stop()
	cli, err := Dial(addr, 4) // all four initial conns doomed
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// The pool hands its slots out in turn, so each of these calls fails
	// on a different doomed connection and discards it.
	for i := 0; i < 4; i++ {
		if _, err := cli.CallSync([]byte("x")); err == nil {
			t.Fatalf("call %d over a doomed connection succeeded", i)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("m-%d", i))
			resp, err := cli.CallSync(msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("mismatch %q vs %q", msg, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
