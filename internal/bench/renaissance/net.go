package renaissance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"renaissance/internal/core"
	"renaissance/internal/futures"
	"renaissance/internal/hdr"
	"renaissance/internal/loadgen"
	"renaissance/internal/memdb"
	"renaissance/internal/netstack"
)

func init() {
	register("finagle-http",
		"High server load over the loopback request/response framework.",
		[]string{"network stack", "message-passing"}, newFinagleHTTP)
	register("finagle-chirper",
		"A microblogging service with futures and atomic counters over loopback.",
		[]string{"network stack", "futures", "atomics"}, newFinagleChirper)
	loadgen.RegisterTarget("finagle-http", newFinagleHTTPTarget)
	loadgen.RegisterTarget("finagle-chirper", newFinagleChirperTarget)
}

// clientShare splits total requests over clients without losing the
// remainder: client c issues count requests with sequence numbers starting
// at start. The first total%clients clients carry one extra request.
// (The old split used total/clients for every client, silently dropping
// total%clients requests whenever the division wasn't even — and the
// served-count validation compared against the same truncated product, so
// the loss was invisible.)
func clientShare(total, clients, c int) (start, count int) {
	per := total / clients
	extra := total % clients
	count = per
	if c < extra {
		count++
	}
	start = c*per + min(c, extra)
	return start, count
}

// --- finagle-http ---

type finagleHTTPWorkload struct {
	requests int
	clients  int
	served   int64
	lat      *hdr.Histogram
}

func newFinagleHTTP(cfg core.Config) (core.Workload, error) {
	return &finagleHTTPWorkload{
		requests: cfg.Scale(600),
		clients:  4,
		lat:      hdr.New(),
	}, nil
}

func (w *finagleHTTPWorkload) RunIteration() error {
	srv, err := netstack.Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		// Echo with a small header, like a trivial HTTP handler.
		resp := append([]byte("OK:"), req...)
		return futures.Completed(resp)
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := netstack.Dial(srv.Addr(), 2)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			start, count := clientShare(w.requests, w.clients, c)
			buf := make([]byte, 8)
			for i := 0; i < count; i++ {
				binary.BigEndian.PutUint64(buf, uint64(start+i))
				sent := time.Now()
				resp, err := cli.CallSync(buf)
				if err != nil {
					errCh <- err
					return
				}
				w.lat.RecordDuration(time.Since(sent))
				if len(resp) != len(buf)+3 {
					errCh <- fmt.Errorf("finagle-http: bad response length %d", len(resp))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	w.served = srv.Requests.Load()
	if w.served != int64(w.requests) {
		return fmt.Errorf("finagle-http: served %d, want %d", w.served, w.requests)
	}
	return nil
}

func (w *finagleHTTPWorkload) Validate() error {
	if w.served == 0 {
		return fmt.Errorf("finagle-http: nothing served")
	}
	return nil
}

// LatencyHistogram implements core.LatencyReporter: per-request round-trip
// latencies, summarized into the run result's percentile block.
func (w *finagleHTTPWorkload) LatencyHistogram() *hdr.Histogram { return w.lat }

// --- finagle-chirper ---

// chirper protocol: first byte is the op ('P' post, 'F' fetch feed),
// followed by a 4-byte user id and the payload.

type chirperService struct {
	mu    sync.Mutex
	feeds map[uint32][][]byte
	posts atomic.Int64
	// cache memoizes assembled 'F' responses in a memdb store, keyed by
	// the raw 4-byte user id. Fetches fill it while holding the feed lock;
	// posts invalidate under the same lock, so a cached entry always
	// reflects every post that preceded its fill.
	cache     memdb.Store
	cacheHit  atomic.Int64
	cacheMiss atomic.Int64
}

func newChirperService() *chirperService {
	return &chirperService{
		feeds: make(map[uint32][][]byte),
		cache: memdb.NewShardedHash(16),
	}
}

func (s *chirperService) handle(req []byte) *futures.Future[[]byte] {
	if len(req) < 5 {
		return futures.Completed([]byte("ERR"))
	}
	op := req[0]
	user := binary.BigEndian.Uint32(req[1:5])
	key := string(req[1:5])
	switch op {
	case 'P':
		s.posts.Add(1)
		msg := append([]byte(nil), req[5:]...)
		s.mu.Lock()
		s.feeds[user] = append(s.feeds[user], msg)
		// Invalidate under the feed lock: a concurrent fetch fills the
		// cache under the same lock, so it either sees this post or is
		// invalidated by it — never a stale fill surviving the post.
		s.cache.Delete(key)
		s.mu.Unlock()
		return futures.Completed([]byte("ACK"))
	case 'F':
		if v, ok := s.cache.Get(key); ok {
			s.cacheHit.Add(1)
			return futures.Completed(v)
		}
		s.cacheMiss.Add(1)
		// Asynchronous fetch: assemble the feed on another goroutine, the
		// future-composition shape of the original service.
		return futures.Async(func() ([]byte, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			total := 0
			for _, m := range s.feeds[user] {
				total += len(m)
			}
			out := make([]byte, 4, 4+total)
			binary.BigEndian.PutUint32(out, uint32(len(s.feeds[user])))
			for _, m := range s.feeds[user] {
				out = append(out, m...)
			}
			s.cache.Put(key, out)
			return out, nil
		})
	default:
		return futures.Completed([]byte("ERR"))
	}
}

type finagleChirperWorkload struct {
	users     int
	postsPer  int
	verified  atomic.Int64
	cacheHits atomic.Int64
	lat       *hdr.Histogram
}

func newFinagleChirper(cfg core.Config) (core.Workload, error) {
	return &finagleChirperWorkload{
		users:    8,
		postsPer: cfg.Scale(40),
		lat:      hdr.New(),
	}, nil
}

func (w *finagleChirperWorkload) RunIteration() error {
	svc := newChirperService()
	srv, err := netstack.Serve("127.0.0.1:0", svc.handle)
	if err != nil {
		return err
	}
	defer srv.Close()

	w.verified.Store(0)
	var wg sync.WaitGroup
	errCh := make(chan error, w.users)
	for u := 0; u < w.users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			cli, err := netstack.Dial(srv.Addr(), 2)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()

			post := make([]byte, 5+8)
			post[0] = 'P'
			binary.BigEndian.PutUint32(post[1:5], uint32(u))
			// Post messages; every few posts, asynchronously fetch and
			// verify the feed with a future continuation.
			for i := 0; i < w.postsPer; i++ {
				binary.BigEndian.PutUint64(post[5:], uint64(i))
				sent := time.Now()
				if _, err := cli.CallSync(post); err != nil {
					errCh <- err
					return
				}
				w.lat.RecordDuration(time.Since(sent))
				if i%8 == 7 || i == w.postsPer-1 {
					fetch := make([]byte, 5)
					fetch[0] = 'F'
					binary.BigEndian.PutUint32(fetch[1:5], uint32(u))
					wantLen := uint32(i + 1)
					sent = time.Now()
					first, err := cli.CallSync(fetch)
					if err != nil {
						errCh <- err
						return
					}
					w.lat.RecordDuration(time.Since(sent))
					if len(first) < 4 || binary.BigEndian.Uint32(first) != wantLen {
						errCh <- fmt.Errorf("finagle-chirper: user %d feed mismatch at post %d", u, i)
						return
					}
					// Fetch again with no intervening post: the reply must
					// come from the memdb cache and match byte-for-byte —
					// the cache-coherence check.
					f := futures.Map(cli.Call(fetch), func(resp []byte) bool {
						return bytes.Equal(resp, first)
					})
					same, err := f.Await()
					if err != nil {
						errCh <- err
						return
					}
					if !same {
						errCh <- fmt.Errorf("finagle-chirper: user %d cached feed diverged at post %d", u, i)
						return
					}
					w.verified.Add(1)
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return err
	}
	if got := svc.posts.Load(); got != int64(w.users*w.postsPer) {
		return fmt.Errorf("finagle-chirper: %d posts recorded, want %d", got, w.users*w.postsPer)
	}
	// Each verify point is one cold fetch (fill) plus one cached re-fetch;
	// posts in between invalidate, so hits and misses both equal the
	// verify count.
	verified := w.verified.Load()
	if hits := svc.cacheHit.Load(); hits != verified {
		return fmt.Errorf("finagle-chirper: %d cache hits, want %d", hits, verified)
	}
	if misses := svc.cacheMiss.Load(); misses != verified {
		return fmt.Errorf("finagle-chirper: %d cache misses, want %d", misses, verified)
	}
	w.cacheHits.Add(svc.cacheHit.Load())
	return nil
}

func (w *finagleChirperWorkload) Validate() error {
	if w.verified.Load() == 0 {
		return fmt.Errorf("finagle-chirper: no feeds verified")
	}
	if w.cacheHits.Load() == 0 {
		return fmt.Errorf("finagle-chirper: feed cache never hit")
	}
	return nil
}

// LatencyHistogram implements core.LatencyReporter.
func (w *finagleChirperWorkload) LatencyHistogram() *hdr.Histogram { return w.lat }

// --- open-loop targets ---

// Open-loop serving targets for the loadgen tier: each builds a fresh
// loopback server behind admission control (bounded accept queue in front
// of the in-flight limit) plus a pooled client, so a saturation sweep
// measures the service's queueing behavior, not leftover state.

// targetMaxPending and targetMaxQueue shape the admission path of the
// open-loop targets: up to targetMaxPending requests execute while
// targetMaxQueue more wait; beyond that the server rejects (ErrRejected)
// instead of queueing unboundedly.
const (
	targetMaxPending = 128
	targetMaxQueue   = 512
	targetPoolSize   = 32
)

type finagleHTTPTarget struct {
	srv *netstack.Server
	cli *netstack.Client
}

func newFinagleHTTPTarget(cfg core.Config) (loadgen.Target, error) {
	srv, err := netstack.Serve("127.0.0.1:0", func(req []byte) *futures.Future[[]byte] {
		return futures.Completed(append([]byte("OK:"), req...))
	})
	if err != nil {
		return nil, err
	}
	srv.MaxPending = targetMaxPending
	srv.MaxQueue = targetMaxQueue
	cli, err := netstack.Dial(srv.Addr(), targetPoolSize)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &finagleHTTPTarget{srv: srv, cli: cli}, nil
}

func (t *finagleHTTPTarget) Send(seq uint64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seq)
	resp, err := t.cli.CallSync(buf[:])
	if err != nil {
		return err
	}
	if len(resp) != len(buf)+3 {
		return fmt.Errorf("finagle-http: bad response length %d", len(resp))
	}
	return nil
}

func (t *finagleHTTPTarget) Close() error {
	cerr := t.cli.Close()
	serr := t.srv.Close()
	if cerr != nil {
		return cerr
	}
	return serr
}

type finagleChirperTarget struct {
	srv   *netstack.Server
	cli   *netstack.Client
	users uint32
}

func newFinagleChirperTarget(cfg core.Config) (loadgen.Target, error) {
	svc := newChirperService()
	srv, err := netstack.Serve("127.0.0.1:0", svc.handle)
	if err != nil {
		return nil, err
	}
	srv.MaxPending = targetMaxPending
	srv.MaxQueue = targetMaxQueue
	cli, err := netstack.Dial(srv.Addr(), targetPoolSize)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &finagleChirperTarget{srv: srv, cli: cli, users: 8}, nil
}

// Send derives the request deterministically from seq — user seq%users,
// one fetch per eight requests, posts otherwise — so the same loadgen seed
// replays the same request stream against the service.
func (t *finagleChirperTarget) Send(seq uint64) error {
	user := uint32(seq) % t.users
	if seq%8 == 7 {
		fetch := make([]byte, 5)
		fetch[0] = 'F'
		binary.BigEndian.PutUint32(fetch[1:5], user)
		resp, err := t.cli.CallSync(fetch)
		if err != nil {
			return err
		}
		if len(resp) < 4 {
			return fmt.Errorf("finagle-chirper: short feed response (%d bytes)", len(resp))
		}
		return nil
	}
	post := make([]byte, 5+8)
	post[0] = 'P'
	binary.BigEndian.PutUint32(post[1:5], user)
	binary.BigEndian.PutUint64(post[5:], seq)
	resp, err := t.cli.CallSync(post)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp, []byte("ACK")) {
		return fmt.Errorf("finagle-chirper: post not acked: %q", resp)
	}
	return nil
}

func (t *finagleChirperTarget) Close() error {
	cerr := t.cli.Close()
	serr := t.srv.Close()
	if cerr != nil {
		return cerr
	}
	return serr
}
