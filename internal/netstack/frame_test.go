package netstack

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// ioSyscalls reads the process's read and write syscall counts from
// /proc/self/io (every thread; a read that returns EAGAIN counts too).
func ioSyscalls(t *testing.T) (reads, writes int64) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no syscall counts on this platform: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseInt(f[1], 10, 64)
		switch f[0] {
		case "syscr:":
			reads = v
		case "syscw:":
			writes = v
		}
	}
	return reads, writes
}

// A round trip costs one buffered write and one buffered read per frame:
// two writes and, with the EAGAIN read each side makes before it parks,
// at most four reads. Writing the header and the payload separately and
// reading them with two ReadFulls cost four writes and six reads.
func TestFrameSyscallsPerRoundTrip(t *testing.T) {
	_, cli := startEcho(t)
	req := []byte("12345678")
	for i := 0; i < 20; i++ {
		if _, err := cli.CallSync(req); err != nil {
			t.Fatal(err)
		}
	}
	const n = 1000
	r0, w0 := ioSyscalls(t)
	for i := 0; i < n; i++ {
		if _, err := cli.CallSync(req); err != nil {
			t.Fatal(err)
		}
	}
	r1, w1 := ioSyscalls(t)
	reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
	if writes > 2.2 {
		t.Errorf("%.2f write syscalls per round trip, want 2 (one write a frame)", writes)
	}
	if reads > 4.4 {
		t.Errorf("%.2f read syscalls per round trip, want <= 4 (one read a frame, one EAGAIN a side)", reads)
	}
}

// A round trip allocates what the request path is made of: the call's
// promise, its goroutine's closure and the channel Await parks on, the two
// payloads read off the wire, the echo service's copy, its completed
// future and the server's reply continuation. Framing adds nothing: the
// 4-byte headers used to escape to the heap, four per round trip.
func TestCallSyncAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	_, cli := startEcho(t)
	req := []byte("12345678")
	got := testing.AllocsPerRun(500, func() {
		if _, err := cli.CallSync(req); err != nil {
			t.Fatal(err)
		}
	})
	if got > 8 {
		t.Errorf("CallSync: %v allocations per round trip, want <= 8", got)
	}
}

// Frames decode across the read buffer's edges: several small frames
// arriving in one read, and frames larger than the buffer, whose payload
// is read past it.
func TestFrameCodecAcrossBuffer(t *testing.T) {
	var wire bytes.Buffer
	fc := newFrameConn(&wire)
	frames := [][]byte{
		[]byte("a"), {}, bytes.Repeat([]byte("b"), frameBuf-4),
		bytes.Repeat([]byte("c"), frameBuf), bytes.Repeat([]byte("d"), 5*frameBuf+3), []byte("e"),
	}
	for _, f := range frames {
		if err := fc.writeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := fc.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes decoded, want %d", i, len(got), len(want))
		}
	}
	if _, err := fc.readFrame(); err == nil {
		t.Error("read past the last frame succeeded")
	}
}

// Any byte stream decodes without panicking, and the frames it yields,
// written back, reproduce the prefix of the stream they came from.
func FuzzFrameCodec(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 'h', 'i', 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(append([]byte{0, 0, 2, 1}, bytes.Repeat([]byte("z"), 2*frameBuf)...))
	f.Fuzz(func(t *testing.T, wire []byte) {
		in := newFrameConn(bytes.NewBuffer(wire))
		var out bytes.Buffer
		back := newFrameConn(&out)
		for {
			p, err := in.readFrame()
			if err != nil {
				break
			}
			if err := back.writeFrame(p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.HasPrefix(wire, out.Bytes()) {
			t.Fatalf("re-encoded frames %x are not a prefix of the input %x", out.Bytes(), wire)
		}
	})
}
