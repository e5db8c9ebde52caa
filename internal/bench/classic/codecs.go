package classic

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math"
	"math/big"
	"strings"

	"renaissance/internal/core"
	"renaissance/internal/memdb"
	"renaissance/internal/metrics"
	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
)

func init() {
	register("compress", "Run-length + delta compression round trip.", newCompress)
	register("crypto.aes", "Stream-cipher encryption round trip.", newCryptoAES)
	register("crypto.rsa", "Modular-exponentiation encrypt/decrypt round trip.", newCryptoRSA)
	register("crypto.signverify", "Hash-and-modpow signing and verification.", newSignVerify)
	register("mpegaudio", "DCT-II analysis over audio-like frames.", newMpegAudio)
	register("serial", "JSON serialization round trip of record graphs.", newSerial)
	register("xml.transform", "XML parse and transformation.", newXMLTransform)
	register("xml.validation", "XML parse and structural validation.", newXMLValidation)
	register("compiler.compiler", "Compile a minilang corpus (compiler front end).", newCompilerCompiler)
	register("compiler.sunflow", "Compile and execute a minilang corpus.", newCompilerSunflow)
	register("derby", "Single-threaded B-tree query mix (embedded database).", newDerby)
	register("sunflow", "Ray-sphere rendering of a procedural scene.", newSunflow)
}

// --- compress ---

type compressWorkload struct {
	input []byte
}

func newCompress(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(400_000)
	var r lcg = 5
	buf := make([]byte, n)
	noteArrays(1)
	// Compressible structure: long runs with occasional noise.
	v := byte(0)
	for i := range buf {
		if r.next()%19 == 0 {
			v = byte(r.next())
		}
		buf[i] = v
	}
	return &compressWorkload{input: buf}, nil
}

// rle encodes (count, byte) pairs with a 255 cap.
func rle(in []byte) []byte {
	var out []byte
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j] == in[i] && j-i < 255 {
			j++
		}
		out = append(out, byte(j-i), in[i])
		i = j
	}
	return out
}

func unrle(in []byte) []byte {
	var out []byte
	for i := 0; i+1 < len(in); i += 2 {
		for k := 0; k < int(in[i]); k++ {
			out = append(out, in[i+1])
		}
	}
	return out
}

func (w *compressWorkload) RunIteration() error {
	enc := rle(w.input)
	dec := unrle(enc)
	if !bytes.Equal(dec, w.input) {
		return fmt.Errorf("compress: round trip mismatch")
	}
	if len(enc) >= len(w.input) {
		return fmt.Errorf("compress: no compression achieved (%d >= %d)", len(enc), len(w.input))
	}
	return nil
}

// --- crypto.aes (stream cipher) ---

type cryptoAESWorkload struct {
	plain []byte
}

func newCryptoAES(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(500_000)
	var r lcg = 21
	buf := make([]byte, n)
	noteArrays(1)
	for i := range buf {
		buf[i] = byte(r.next())
	}
	return &cryptoAESWorkload{plain: buf}, nil
}

// xorshiftStream generates a keystream from a 64-bit key.
func xorshiftStream(key uint64, out []byte) {
	s := key
	for i := 0; i < len(out); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v := s
		for b := 0; b < 8 && i+b < len(out); b++ {
			out[i+b] = byte(v)
			v >>= 8
		}
	}
}

func (w *cryptoAESWorkload) RunIteration() error {
	stream := make([]byte, len(w.plain))
	xorshiftStream(0xDEADBEEFCAFE, stream)
	ct := make([]byte, len(w.plain))
	for i := range ct {
		ct[i] = w.plain[i] ^ stream[i]
	}
	for i := range ct {
		ct[i] ^= stream[i]
	}
	if !bytes.Equal(ct, w.plain) {
		return fmt.Errorf("crypto.aes: round trip mismatch")
	}
	return nil
}

// --- crypto.rsa ---

type cryptoRSAWorkload struct {
	n, e, d  *big.Int
	messages []*big.Int
}

func newCryptoRSA(cfg core.Config) (core.Workload, error) {
	// Small fixed RSA parameters (p=61403, q=56809 class primes scaled
	// up): deterministic toy key big enough to exercise big-int modpow.
	p := big.NewInt(1000003)
	q := big.NewInt(999983)
	n := new(big.Int).Mul(p, q)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(q, big.NewInt(1)))
	e := big.NewInt(65537)
	d := new(big.Int).ModInverse(e, phi)
	if d == nil {
		return nil, fmt.Errorf("crypto.rsa: bad key")
	}
	count := cfg.Scale(150)
	var r lcg = 31
	msgs := make([]*big.Int, count)
	for i := range msgs {
		msgs[i] = new(big.Int).SetUint64(r.next() % 999999000000)
	}
	return &cryptoRSAWorkload{n: n, e: e, d: d, messages: msgs}, nil
}

func (w *cryptoRSAWorkload) RunIteration() error {
	for _, m := range w.messages {
		c := new(big.Int).Exp(m, w.e, w.n)
		back := new(big.Int).Exp(c, w.d, w.n)
		if back.Cmp(m) != 0 {
			return fmt.Errorf("crypto.rsa: decrypt mismatch")
		}
	}
	return nil
}

// --- crypto.signverify ---

type signVerifyWorkload struct {
	rsa  *cryptoRSAWorkload
	docs [][]byte
}

func newSignVerify(cfg core.Config) (core.Workload, error) {
	inner, err := newCryptoRSA(cfg)
	if err != nil {
		return nil, err
	}
	rsa := inner.(*cryptoRSAWorkload)
	var r lcg = 77
	docs := make([][]byte, cfg.Scale(200))
	for i := range docs {
		doc := make([]byte, 256)
		for j := range doc {
			doc[j] = byte(r.next())
		}
		docs[i] = doc
	}
	return &signVerifyWorkload{rsa: rsa, docs: docs}, nil
}

func fnvHash(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (w *signVerifyWorkload) RunIteration() error {
	for _, doc := range w.docs {
		digest := new(big.Int).SetUint64(fnvHash(doc) % 999999000000)
		sig := new(big.Int).Exp(digest, w.rsa.d, w.rsa.n)
		recovered := new(big.Int).Exp(sig, w.rsa.e, w.rsa.n)
		if recovered.Cmp(digest) != 0 {
			return fmt.Errorf("crypto.signverify: verification failed")
		}
	}
	return nil
}

// --- mpegaudio ---

type mpegAudioWorkload struct {
	frames   [][]float64
	checksum float64
}

func newMpegAudio(cfg core.Config) (core.Workload, error) {
	frames := cfg.Scale(300)
	const frameLen = 128
	var r lcg = 17
	w := &mpegAudioWorkload{}
	noteArrays(int64(frames) + 1)
	for f := 0; f < frames; f++ {
		fr := make([]float64, frameLen)
		for i := range fr {
			fr[i] = math.Sin(float64(i)*0.1*float64(f%7+1)) + 0.1*(r.float()-0.5)
		}
		w.frames = append(w.frames, fr)
	}
	return w, nil
}

// dct2 computes the (naive) DCT-II of a frame.
func dct2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi/float64(n)*(float64(i)+0.5)*float64(k))
		}
		out[k] = s
	}
	return out
}

func (w *mpegAudioWorkload) RunIteration() error {
	w.checksum = 0
	for _, fr := range w.frames {
		spec := dct2(fr)
		// Energy in the low band dominates for sinusoidal input.
		for k := 0; k < 8; k++ {
			w.checksum += math.Abs(spec[k])
		}
	}
	return nil
}

func (w *mpegAudioWorkload) Validate() error {
	if w.checksum <= 0 {
		return fmt.Errorf("mpegaudio: empty spectrum")
	}
	return nil
}

// --- serial ---

type record struct {
	ID       int            `json:"id"`
	Name     string         `json:"name"`
	Tags     []string       `json:"tags"`
	Attrs    map[string]int `json:"attrs"`
	Children []record       `json:"children,omitempty"`
}

type serialWorkload struct {
	records []record
}

func newSerial(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(300)
	w := &serialWorkload{}
	metrics.AddObject(int64(n))
	for i := 0; i < n; i++ {
		w.records = append(w.records, record{
			ID:    i,
			Name:  fmt.Sprintf("record-%d", i),
			Tags:  []string{"alpha", "beta", fmt.Sprintf("t%d", i%7)},
			Attrs: map[string]int{"a": i, "b": i * i},
			Children: []record{
				{ID: i * 10, Name: "child", Tags: []string{"leaf"}},
			},
		})
	}
	return w, nil
}

func (w *serialWorkload) RunIteration() error {
	blob, err := json.Marshal(w.records)
	if err != nil {
		return err
	}
	var back []record
	if err := json.Unmarshal(blob, &back); err != nil {
		return err
	}
	if len(back) != len(w.records) || back[len(back)-1].ID != w.records[len(w.records)-1].ID {
		return fmt.Errorf("serial: round trip mismatch")
	}
	return nil
}

// --- xml ---

type xmlDoc struct {
	XMLName xml.Name  `xml:"catalog"`
	Items   []xmlItem `xml:"item"`
}

type xmlItem struct {
	ID    int    `xml:"id,attr"`
	Name  string `xml:"name"`
	Price int    `xml:"price"`
}

func xmlCorpus(n int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="%d"><name>widget-%d</name><price>%d</price></item>`, i, i, i*3+1)
	}
	b.WriteString("</catalog>")
	return b.String()
}

type xmlTransformWorkload struct {
	src string
}

func newXMLTransform(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(800)
	return &xmlTransformWorkload{src: xmlCorpus(n)}, nil
}

func (w *xmlTransformWorkload) RunIteration() error {
	var doc xmlDoc
	if err := xml.Unmarshal([]byte(w.src), &doc); err != nil {
		return err
	}
	// Transform: discount prices and re-serialize.
	for i := range doc.Items {
		doc.Items[i].Price = doc.Items[i].Price * 9 / 10
	}
	out, err := xml.Marshal(doc)
	if err != nil {
		return err
	}
	if !bytes.Contains(out, []byte("widget-0")) {
		return fmt.Errorf("xml.transform: output lost items")
	}
	return nil
}

type xmlValidationWorkload struct {
	src   string
	items int
}

func newXMLValidation(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(1200)
	return &xmlValidationWorkload{src: xmlCorpus(n), items: n}, nil
}

func (w *xmlValidationWorkload) RunIteration() error {
	var doc xmlDoc
	if err := xml.Unmarshal([]byte(w.src), &doc); err != nil {
		return err
	}
	if len(doc.Items) != w.items {
		return fmt.Errorf("xml.validation: %d items, want %d", len(doc.Items), w.items)
	}
	for i, it := range doc.Items {
		if it.ID != i || it.Price != i*3+1 {
			return fmt.Errorf("xml.validation: item %d corrupt", i)
		}
	}
	return nil
}

// --- compiler.* ---

type compilerWorkload struct {
	corpus  []string
	execute bool
}

func newCompilerCompiler(cfg core.Config) (core.Workload, error) {
	return &compilerWorkload{corpus: minilang.Corpus(cfg.Scale(16))}, nil
}

func newCompilerSunflow(cfg core.Config) (core.Workload, error) {
	return &compilerWorkload{corpus: minilang.Corpus(cfg.Scale(10)), execute: true}, nil
}

func (w *compilerWorkload) RunIteration() error {
	for i, src := range w.corpus {
		p, err := minilang.Compile(src)
		if err != nil {
			return fmt.Errorf("compiler: unit %d: %w", i, err)
		}
		if w.execute {
			if _, err := rvm.NewInterp(p).Run(); err != nil {
				return fmt.Errorf("compiler: unit %d run: %w", i, err)
			}
		}
	}
	return nil
}

// --- derby ---

type derbyWorkload struct {
	rows int
	db   memdb.Store
}

func newDerby(cfg core.Config) (core.Workload, error) {
	return &derbyWorkload{rows: cfg.Scale(3000)}, nil
}

func (w *derbyWorkload) RunIteration() error {
	w.db = memdb.NewBTree()
	for i := 0; i < w.rows; i++ {
		w.db.Put(fmt.Sprintf("row-%08d", i), []byte{byte(i), byte(i >> 8)})
	}
	// Point queries and range scans.
	var r lcg = 3
	found := 0
	for q := 0; q < w.rows/2; q++ {
		k := int(r.next() % uint64(w.rows))
		if _, ok := w.db.Get(fmt.Sprintf("row-%08d", k)); ok {
			found++
		}
	}
	scanned := 0
	w.db.Range("row-00000100", "row-00000200", func(string, []byte) bool {
		scanned++
		return true
	})
	if found != w.rows/2 {
		return fmt.Errorf("derby: %d/%d point queries hit", found, w.rows/2)
	}
	if w.rows >= 200 && scanned != 100 {
		return fmt.Errorf("derby: range scanned %d rows, want 100", scanned)
	}
	return nil
}

// --- sunflow ---

type sunflowWorkload struct {
	size     int
	coverage int
}

func newSunflow(cfg core.Config) (core.Workload, error) {
	return &sunflowWorkload{size: cfg.Scale(160)}, nil
}

func (w *sunflowWorkload) RunIteration() error {
	n := w.size
	// Ray-cast a grid of pixels against three spheres.
	type sphere struct{ cx, cy, cz, r float64 }
	spheres := []sphere{
		{0, 0, 5, 1.5}, {1.5, 0.8, 7, 1.0}, {-1.2, -0.6, 6, 0.8},
	}
	w.coverage = 0
	for py := 0; py < n; py++ {
		for px := 0; px < n; px++ {
			// Ray from origin through the pixel on a virtual plane z=1.
			dx := (float64(px)/float64(n) - 0.5) * 2
			dy := (float64(py)/float64(n) - 0.5) * 2
			dz := 1.0
			norm := math.Sqrt(dx*dx + dy*dy + dz*dz)
			dx, dy, dz = dx/norm, dy/norm, dz/norm
			for _, s := range spheres {
				// |o + t d - c|^2 = r^2 with o = 0.
				b := -2 * (dx*s.cx + dy*s.cy + dz*s.cz)
				c := s.cx*s.cx + s.cy*s.cy + s.cz*s.cz - s.r*s.r
				if b*b-4*c >= 0 {
					w.coverage++
					break
				}
			}
		}
	}
	return nil
}

func (w *sunflowWorkload) Validate() error {
	total := w.size * w.size
	if w.coverage == 0 || w.coverage >= total {
		return fmt.Errorf("sunflow: implausible coverage %d/%d", w.coverage, total)
	}
	return nil
}
