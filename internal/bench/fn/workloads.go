package fn

import (
	"fmt"
	"strings"

	"renaissance/internal/actors"
	"renaissance/internal/core"
	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
	"renaissance/internal/rvm/opt"
	"renaissance/internal/streams"
)

func init() {
	register("actors", "Lightweight actor ping-pong rings.", newActors)
	register("apparat", "Bytecode transformation: compile and optimize minilang units.", newApparat)
	register("factorie", "Factor-graph-style iterative belief counting.", newFactorie)
	register("kiama", "Rewriting-based expression simplification to a fixpoint.", newKiama)
	register("scalac", "Compile a minilang corpus (functional compiler style).", newScalac)
	register("scaladoc", "Extract documentation models from parsed sources.", newScaladoc)
	register("scalap", "Decode compiled method signatures from class tables.", newScalap)
	register("scalariform", "Pretty-print source through tokenize/format pipelines.", newScalariform)
	register("scalatest", "Run a functional assertion suite over generated cases.", newScalatest)
	register("scalaxb", "Data-binding transformation over record streams.", newScalaxb)
	register("specs", "Specification matching over behavior streams.", newSpecs)
	register("tmt", "Topic-model-like iterative count redistribution.", newTmt)
}

// --- actors: light ping-pong rings ---

type fnActorsWorkload struct {
	rings  int
	rounds int
}

func newActors(cfg core.Config) (core.Workload, error) {
	return &fnActorsWorkload{rings: 3, rounds: cfg.Scale(200)}, nil
}

func (w *fnActorsWorkload) RunIteration() error {
	sys := actors.NewSystem(0)
	defer sys.Shutdown()
	done := make(chan struct{}, w.rings)
	for r := 0; r < w.rings; r++ {
		// A ring of 4 actors passing a counter around.
		const ringSize = 4
		refs := make([]*actors.Ref, ringSize)
		for i := 0; i < ringSize; i++ {
			i := i
			refs[i] = sys.Spawn("ring", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
				n := msg.(int)
				if n >= w.rounds*ringSize {
					select {
					case done <- struct{}{}:
					default:
					}
					return
				}
				ctx.Send(refs[(i+1)%ringSize], n+1)
			}))
		}
		refs[0].Tell(0)
	}
	for r := 0; r < w.rings; r++ {
		<-done
	}
	sys.AwaitQuiescence()
	return nil
}

// --- apparat: compile + optimize bytecode ---

type apparatWorkload struct {
	corpus []string
	sizes  []int
}

func newApparat(cfg core.Config) (core.Workload, error) {
	return &apparatWorkload{corpus: minilang.Corpus(cfg.Scale(8))}, nil
}

func (w *apparatWorkload) RunIteration() error {
	w.sizes = w.sizes[:0]
	for _, src := range w.corpus {
		p, err := minilang.Compile(src)
		if err != nil {
			return err
		}
		prog, err := ir.BuildProgram(p)
		if err != nil {
			return err
		}
		opt.OptPipeline().Compile(prog)
		total := 0
		for _, f := range prog.Funcs {
			total += f.Size()
		}
		w.sizes = append(w.sizes, total)
	}
	return nil
}

func (w *apparatWorkload) Validate() error {
	for i, s := range w.sizes {
		if s == 0 {
			return fmt.Errorf("apparat: unit %d compiled to nothing", i)
		}
	}
	return nil
}

// --- factorie: iterative counting ---

type factorieWorkload struct {
	docs   [][]int
	topics int
	iters  int
	counts [][]float64
}

func newFactorie(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("factorie")
	w := &factorieWorkload{topics: 6, iters: 10}
	for d := 0; d < cfg.Scale(120); d++ {
		doc := make([]int, 40)
		for i := range doc {
			doc[i] = rng.Intn(200)
		}
		w.docs = append(w.docs, doc)
	}
	return w, nil
}

func (w *factorieWorkload) RunIteration() error {
	// Soft-assign words to topics by iterating normalized counts — an
	// EM-flavored counting loop over maps and slices.
	wordTopic := make(map[int][]float64)
	for it := 0; it < w.iters; it++ {
		next := make(map[int][]float64)
		for d, doc := range w.docs {
			allocated(1)
			for _, word := range doc {
				probs, ok := wordTopic[word]
				if !ok {
					probs = make([]float64, w.topics)
					for t := range probs {
						probs[t] = 1
					}
				}
				// Bias by document identity to break symmetry.
				t := (word + d) % w.topics
				upd := append([]float64(nil), probs...)
				upd[t] += 0.5
				// Normalize.
				sum := 0.0
				for _, v := range upd {
					sum += v
				}
				for i := range upd {
					upd[i] /= sum
				}
				next[word] = upd
			}
		}
		wordTopic = next
	}
	w.counts = nil
	for _, probs := range wordTopic {
		w.counts = append(w.counts, probs)
	}
	return nil
}

func (w *factorieWorkload) Validate() error {
	if len(w.counts) == 0 {
		return fmt.Errorf("factorie: no word-topic distributions")
	}
	for _, probs := range w.counts {
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			return fmt.Errorf("factorie: distribution sums to %.4f", sum)
		}
	}
	return nil
}

// --- kiama: rewriting to fixpoint ---

// term is a tiny expression language for the rewriter.
type term struct {
	op   string // "num", "+", "*"
	val  int
	l, r *term
}

func num(v int) *term            { allocated(1); return &term{op: "num", val: v} }
func add(l, r *term) *term       { allocated(1); return &term{op: "+", l: l, r: r} }
func mul(l, r *term) *term       { allocated(1); return &term{op: "*", l: l, r: r} }
func (t *term) isNum(v int) bool { return t.op == "num" && t.val == v }

type kiamaWorkload struct {
	exprs []*term
}

func newKiama(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("kiama")
	w := &kiamaWorkload{}
	var build func(depth int) *term
	build = func(depth int) *term {
		if depth == 0 {
			return num(rng.Intn(5)) // includes 0s and 1s for the identities
		}
		l, r := build(depth-1), build(depth-1)
		if rng.Intn(2) == 0 {
			return add(l, r)
		}
		return mul(l, r)
	}
	for i := 0; i < cfg.Scale(60); i++ {
		w.exprs = append(w.exprs, build(7))
	}
	return w, nil
}

// rewrite applies algebraic simplifications bottom-up; it returns the
// rewritten term and whether anything changed.
func rewrite(t *term) (*term, bool) {
	if t.op == "num" {
		return t, false
	}
	l, cl := rewrite(t.l)
	r, cr := rewrite(t.r)
	changed := cl || cr
	switch {
	case t.op == "+" && l.isNum(0):
		return r, true
	case t.op == "+" && r.isNum(0):
		return l, true
	case t.op == "*" && (l.isNum(0) || r.isNum(0)):
		return num(0), true
	case t.op == "*" && l.isNum(1):
		return r, true
	case t.op == "*" && r.isNum(1):
		return l, true
	case l.op == "num" && r.op == "num":
		if t.op == "+" {
			return num(l.val + r.val), true
		}
		return num(l.val * r.val), true
	}
	if changed {
		if t.op == "+" {
			return add(l, r), true
		}
		return mul(l, r), true
	}
	return t, false
}

func eval(t *term) int {
	switch t.op {
	case "num":
		return t.val
	case "+":
		return eval(t.l) + eval(t.r)
	default:
		return eval(t.l) * eval(t.r)
	}
}

func (w *kiamaWorkload) RunIteration() error {
	for _, e := range w.exprs {
		want := eval(e)
		cur := e
		for {
			next, changed := rewrite(cur)
			cur = next
			if !changed {
				break
			}
		}
		if cur.op != "num" {
			return fmt.Errorf("kiama: rewriting did not reach a normal form")
		}
		if cur.val != want {
			return fmt.Errorf("kiama: rewrite changed value %d -> %d", want, cur.val)
		}
	}
	return nil
}

// --- scalac / scaladoc / scalap / scalariform ---

type scalacWorkload struct{ corpus []string }

func newScalac(cfg core.Config) (core.Workload, error) {
	return &scalacWorkload{corpus: minilang.Corpus(cfg.Scale(14))}, nil
}

func (w *scalacWorkload) RunIteration() error {
	for _, src := range w.corpus {
		if _, err := minilang.Compile(src); err != nil {
			return err
		}
	}
	return nil
}

type scaladocWorkload struct {
	corpus []string
	docs   int
}

func newScaladoc(cfg core.Config) (core.Workload, error) {
	return &scaladocWorkload{corpus: minilang.Corpus(cfg.Scale(18))}, nil
}

func (w *scaladocWorkload) RunIteration() error {
	w.docs = 0
	for _, src := range w.corpus {
		ast, err := minilang.Parse(src)
		if err != nil {
			return err
		}
		// Build documentation entries with a stream pipeline.
		entries := streams.Map(streams.FromSlice(ast.Funcs),
			func(fn *minilang.FuncDecl) string {
				params := make([]string, len(fn.Params))
				for i, p := range fn.Params {
					params[i] = p.Name + ": " + p.Type.String()
				}
				return fn.Name + "(" + strings.Join(params, ", ") + "): " + fn.Ret.String()
			}).ToSlice()
		w.docs += len(entries)
	}
	return nil
}

func (w *scaladocWorkload) Validate() error {
	if w.docs == 0 {
		return fmt.Errorf("scaladoc: no entries")
	}
	return nil
}

type scalapWorkload struct {
	programs []*rvm.Program
	decoded  int
}

func newScalap(cfg core.Config) (core.Workload, error) {
	w := &scalapWorkload{}
	for _, src := range minilang.Corpus(cfg.Scale(16)) {
		p, err := minilang.Compile(src)
		if err != nil {
			return nil, err
		}
		w.programs = append(w.programs, p)
	}
	return w, nil
}

func (w *scalapWorkload) RunIteration() error {
	w.decoded = 0
	for _, p := range w.programs {
		// "Decode" each method: disassemble its code and build a
		// signature string, the scalap shape of reading class files.
		for _, m := range p.Methods() {
			var b strings.Builder
			fmt.Fprintf(&b, "%s/%d:", m.QualifiedName(), m.NArgs)
			for _, in := range m.Code {
				b.WriteByte(' ')
				b.WriteString(in.Op.String())
			}
			if b.Len() == 0 {
				return fmt.Errorf("scalap: empty decode")
			}
			w.decoded++
		}
	}
	return nil
}

func (w *scalapWorkload) Validate() error {
	if w.decoded == 0 {
		return fmt.Errorf("scalap: nothing decoded")
	}
	return nil
}

type scalariformWorkload struct {
	corpus []string
}

func newScalariform(cfg core.Config) (core.Workload, error) {
	return &scalariformWorkload{corpus: minilang.Corpus(cfg.Scale(20))}, nil
}

func (w *scalariformWorkload) RunIteration() error {
	for _, src := range w.corpus {
		toks, err := minilang.Lex(src)
		if err != nil {
			return err
		}
		// Reformat: join tokens with canonical spacing, then re-lex and
		// compare the token stream (format must preserve tokens).
		var b strings.Builder
		for _, t := range toks {
			if t.Kind == minilang.TokEOF {
				break
			}
			b.WriteString(t.Text)
			b.WriteByte(' ')
		}
		again, err := minilang.Lex(b.String())
		if err != nil {
			return err
		}
		if len(again) != len(toks) {
			return fmt.Errorf("scalariform: token count changed %d -> %d", len(toks), len(again))
		}
	}
	return nil
}

// --- scalatest ---

type scalatestWorkload struct {
	cases  int
	passed int
}

func newScalatest(cfg core.Config) (core.Workload, error) {
	return &scalatestWorkload{cases: cfg.Scale(5000)}, nil
}

func (w *scalatestWorkload) RunIteration() error {
	w.passed = 0
	// Property-style assertions over generated inputs, evaluated through
	// stream pipelines of matcher closures.
	results := streams.Map(streams.Range(0, w.cases), func(i int) bool {
		a, b := i%97, i%89
		sum := a + b
		prod := a * b
		return sum >= a && sum >= b && prod%2 == (a%2)*(b%2)%2 && (a-b)+(b-a) == 0
	})
	w.passed = results.Filter(func(ok bool) bool { return ok }).Count()
	return nil
}

func (w *scalatestWorkload) Validate() error {
	if w.passed != w.cases {
		return fmt.Errorf("scalatest: %d/%d assertions passed", w.passed, w.cases)
	}
	return nil
}

// --- scalaxb: data binding ---

type rawRecord struct {
	ID     int
	Fields map[string]string
}

type boundRecord struct {
	ID    int
	Name  string
	Score int
}

type scalaxbWorkload struct {
	raw   []rawRecord
	bound int
}

func newScalaxb(cfg core.Config) (core.Workload, error) {
	n := cfg.Scale(4000)
	w := &scalaxbWorkload{}
	for i := 0; i < n; i++ {
		allocated(1)
		w.raw = append(w.raw, rawRecord{
			ID: i,
			Fields: map[string]string{
				"name":  fmt.Sprintf("entity-%d", i),
				"score": fmt.Sprintf("%d", i%100),
			},
		})
	}
	return w, nil
}

func (w *scalaxbWorkload) RunIteration() error {
	bound := streams.Map(streams.FromSlice(w.raw), func(r rawRecord) boundRecord {
		allocated(1)
		score := 0
		fmt.Sscanf(r.Fields["score"], "%d", &score)
		return boundRecord{ID: r.ID, Name: r.Fields["name"], Score: score}
	}).ToSlice()
	w.bound = len(bound)
	for i, b := range bound {
		if b.ID != i || b.Score != i%100 {
			return fmt.Errorf("scalaxb: record %d bound incorrectly: %+v", i, b)
		}
	}
	return nil
}

func (w *scalaxbWorkload) Validate() error {
	if w.bound != len(w.raw) {
		return fmt.Errorf("scalaxb: bound %d of %d", w.bound, len(w.raw))
	}
	return nil
}

// --- specs ---

type specsWorkload struct {
	cases int
}

func newSpecs(cfg core.Config) (core.Workload, error) {
	return &specsWorkload{cases: cfg.Scale(3000)}, nil
}

func (w *specsWorkload) RunIteration() error {
	// Behavior specifications: group generated behaviors by subject and
	// verify each group's invariant functionally.
	type behavior struct {
		subject string
		value   int
	}
	behaviors := streams.Map(streams.Range(0, w.cases), func(i int) behavior {
		return behavior{subject: fmt.Sprintf("s%d", i%25), value: i}
	})
	groups := streams.GroupBy(behaviors, func(b behavior) string { return b.subject })
	if len(groups) == 0 {
		return fmt.Errorf("specs: no groups")
	}
	for subject, bs := range groups {
		prev := -1
		for _, b := range bs {
			if b.value <= prev {
				return fmt.Errorf("specs: %s not ordered", subject)
			}
			prev = b.value
		}
	}
	return nil
}

// --- tmt ---

type tmtWorkload struct {
	docs     int
	words    int
	iters    int
	residual float64
}

func newTmt(cfg core.Config) (core.Workload, error) {
	return &tmtWorkload{docs: cfg.Scale(150), words: 300, iters: 12}, nil
}

func (w *tmtWorkload) RunIteration() error {
	// Iterative count redistribution between a doc-topic and word-topic
	// matrix, normalizing each round (the training loop shape of TMT).
	const topics = 8
	docTopic := make([][]float64, w.docs)
	for d := range docTopic {
		docTopic[d] = make([]float64, topics)
		for t := range docTopic[d] {
			docTopic[d][t] = float64((d+t)%5 + 1)
		}
	}
	wordTopic := make([][]float64, w.words)
	for v := range wordTopic {
		wordTopic[v] = make([]float64, topics)
		for t := range wordTopic[v] {
			wordTopic[v][t] = float64((v*t)%7 + 1)
		}
	}
	normalize := func(m [][]float64) {
		for _, row := range m {
			sum := 0.0
			for _, v := range row {
				sum += v
			}
			for i := range row {
				row[i] /= sum
			}
		}
	}
	normalize(docTopic)
	normalize(wordTopic)
	for it := 0; it < w.iters; it++ {
		for d := range docTopic {
			for t := 0; t < topics; t++ {
				// Blend with the topic's average word probability.
				avg := 0.0
				for v := d % 37; v < w.words; v += 37 {
					avg += wordTopic[v][t]
				}
				docTopic[d][t] = 0.7*docTopic[d][t] + 0.3*avg
			}
		}
		normalize(docTopic)
	}
	// Residual: distributions must stay normalized.
	w.residual = 0
	for _, row := range docTopic {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum > 1 {
			w.residual += sum - 1
		} else {
			w.residual += 1 - sum
		}
	}
	return nil
}

func (w *tmtWorkload) Validate() error {
	if w.residual > 1e-6*float64(w.docs) {
		return fmt.Errorf("tmt: normalization residual %g", w.residual)
	}
	return nil
}
