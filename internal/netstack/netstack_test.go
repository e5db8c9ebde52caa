package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"renaissance/internal/futures"
)

func echoService(req []byte) *futures.Future[[]byte] {
	return futures.Completed(append([]byte(nil), req...))
}

func startEcho(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 4)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

func TestEchoRoundTrip(t *testing.T) {
	_, cli := startEcho(t)
	resp, err := cli.CallSync([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello" {
		t.Errorf("resp = %q", resp)
	}
}

func TestEmptyPayload(t *testing.T) {
	_, cli := startEcho(t)
	resp, err := cli.CallSync(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Errorf("resp = %q, want empty", resp)
	}
}

func TestLargePayload(t *testing.T) {
	_, cli := startEcho(t)
	big := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := cli.CallSync(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Error("large payload corrupted")
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv, cli := startEcho(t)
	const calls = 100
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := cli.CallSync(msg)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(resp, msg) {
				errs <- fmt.Errorf("mismatch: sent %q got %q", msg, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if srv.Requests.Load() != calls {
		t.Errorf("server handled %d requests, want %d", srv.Requests.Load(), calls)
	}
}

func TestAsyncFutureComposition(t *testing.T) {
	_, cli := startEcho(t)
	f := futures.Map(cli.Call([]byte("ping")), func(b []byte) string {
		return strings.ToUpper(string(b))
	})
	v, err := f.Await()
	if err != nil || v != "PING" {
		t.Errorf("composed = (%q, %v)", v, err)
	}
}

func TestServiceError(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.Async(func() ([]byte, error) { return nil, errors.New("backend down") })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.CallSync([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "ERR:") {
		t.Errorf("resp = %q, want error marker", resp)
	}
}

func TestDeferredServiceResponse(t *testing.T) {
	// The service answers asynchronously, after the handler returned.
	srv, err := Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.Async(func() ([]byte, error) {
			time.Sleep(10 * time.Millisecond)
			return append([]byte("late:"), req...), nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.CallSync([]byte("req"))
	if err != nil || string(resp) != "late:req" {
		t.Errorf("resp = (%q, %v)", resp, err)
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	srv, cli := startEcho(t)
	_ = srv
	cli.Close()
	_, err := cli.CallSync([]byte("x"))
	if err == nil {
		t.Error("call on closed client succeeded")
	}
	// Close is idempotent.
	if err := cli.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", echoService)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 1); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	payload := []byte("framed")
	if err := fc.writeFrame(payload); err != nil {
		t.Fatal(err)
	}
	got, err := fc.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("decoded %q", got)
	}
	// Truncated frame errors.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	if _, err := newFrameConn(&buf).readFrame(); err == nil {
		t.Error("truncated frame accepted")
	}
	// Oversized frame rejected.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := newFrameConn(&buf).readFrame(); err == nil {
		t.Error("oversized frame accepted")
	}
}
