package kernels

// The per-benchmark pattern mixes. Each kernel's weights are derived from
// the paper's published profile of that benchmark: the Table 7 metric
// counts (which primitives the benchmark exercises) and the Tables 12–15
// optimization responses (which §5 optimizations move it). The headline
// couplings reproduced here:
//
//	fj-kmeans         — synchronized-heavy    → LLC  (+71% in the paper)
//	finagle-chirper   — atomic-heavy churn    → EAWA (+24%)
//	future-genetic    — shared PRNG CAS pairs → AC   (+24%), MHS (+25%)
//	scrabble          — stream lambdas        → MHS  (+22%)
//	streams-mnemonics — dup-simulation chains → DBDS (+22%)
//	log-regression    — bounds-checked loops  → GM   (+15%)
//	als               — vectorizable loops    → GM (+11%), LV (+10%)
//	scimark.lu.small  — dense numeric loops   → GM (+137%), LV (+58%)
//
// Suites mirror the paper's four: renaissance, dacapo, scalabench,
// specjvm.
const (
	SuiteRenaissance = "renaissance"
	SuiteDaCapo      = "dacapo"
	SuiteScalaBench  = "scalabench"
	SuiteSPECjvm     = "specjvm"
)

// Specs returns all 68 kernel specs in suite order.
func Specs() []Spec {
	var out []Spec
	out = append(out, RenaissanceSpecs()...)
	out = append(out, DaCapoSpecs()...)
	out = append(out, ScalaBenchSpecs()...)
	out = append(out, SPECjvmSpecs()...)
	return out
}

// Lookup finds a spec by suite and name.
func Lookup(suite, name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Suite == suite && s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// RenaissanceSpecs returns the 21 Table 1 kernels.
func RenaissanceSpecs() []Spec {
	r := func(name string, w Weights) Spec { return Spec{Name: name, Suite: SuiteRenaissance, W: w} }
	return []Spec{
		r("akka-uct", Weights{Events: 400, Alloc: 350, Virtual: 300, CASSingle: 200, CASChurn: 60, Lambda: 60, Bounds: 250, Framework: 400, FrameworkDepth: 32}),
		r("als", Weights{Vector: 500, Bounds: 250, Float: 1200, Lambda: 80, Framework: 250, FrameworkDepth: 30}),
		r("chi-square", Weights{CASRetry: 300, TypeChain: 420, CASChurn: 120, Bounds: 400, Vector: 150, Lambda: 200, Framework: 250, FrameworkDepth: 28}),
		r("db-shootout", Weights{Bounds: 700, Virtual: 500, Alloc: 400, SyncScattered: 200, Framework: 300, FrameworkDepth: 30}),
		r("dec-tree", Weights{Bounds: 500, Vector: 150, Virtual: 300, Float: 400, Framework: 350, FrameworkDepth: 30}),
		r("dotty", Weights{Lambda: 950, Virtual: 600, Alloc: 500, TypeChain: 250, SyncScattered: 300, Framework: 300, FrameworkDepth: 40}),
		r("finagle-chirper", Weights{CASChurn: 600, Lambda: 200, Events: 200, Virtual: 150, Framework: 300, FrameworkDepth: 32}),
		r("finagle-http", Weights{Events: 400, Alloc: 400, TypeChain: 250, Virtual: 300, CASSingle: 150, Framework: 300, FrameworkDepth: 30}),
		r("fj-kmeans", Weights{SyncLoop: 2600, Bounds: 20, CASSingle: 80, Float: 250, Framework: 120, FrameworkDepth: 24}),
		r("future-genetic", Weights{CASRetry: 2600, Lambda: 1800, CASChurn: 120, Bounds: 20, Events: 100, Framework: 130, FrameworkDepth: 24}),
		r("log-regression", Weights{Bounds: 3400, Vector: 120, Float: 300, Lambda: 80, Framework: 300, FrameworkDepth: 30}),
		r("movie-lens", Weights{Bounds: 150, Vector: 80, Virtual: 300, Alloc: 300, Lambda: 150, Events: 100, Framework: 300, FrameworkDepth: 30}),
		r("naive-bayes", Weights{Bounds: 2400, Float: 300, Vector: 80, CASSingle: 80, Framework: 250, FrameworkDepth: 28}),
		r("neo4j-analytics", Weights{Virtual: 700, Alloc: 500, Bounds: 700, TypeChain: 150, SyncScattered: 200, Lambda: 150, Framework: 350, FrameworkDepth: 36}),
		r("page-rank", Weights{Bounds: 200, CASSingle: 300, Alloc: 300, Vector: 60, Framework: 300, FrameworkDepth: 28}),
		r("philosophers", Weights{Events: 600, CASSingle: 500, SyncScattered: 300, Alloc: 150, Framework: 250, FrameworkDepth: 26}),
		r("reactors", Weights{Events: 700, Virtual: 400, Alloc: 350, CASSingle: 250, SyncScattered: 150, Framework: 250, FrameworkDepth: 26}),
		r("rx-scrabble", Weights{Lambda: 120, Virtual: 350, Alloc: 300, Bounds: 200, Events: 120, Framework: 300, FrameworkDepth: 30}),
		r("scrabble", Weights{Lambda: 2000, Bounds: 200, Alloc: 200, TypeChain: 100, Framework: 250, FrameworkDepth: 28}),
		r("stm-bench7", Weights{CASSingle: 600, Events: 350, TypeChain: 250, Bounds: 250, Alloc: 200, Framework: 250, FrameworkDepth: 26}),
		r("streams-mnemonics", Weights{TypeChain: 4800, Lambda: 500, Alloc: 120, Framework: 100, FrameworkDepth: 26}),
	}
}

// DaCapoSpecs returns the 14 DaCapo-like kernels (the paper's Table 13
// rows): object-oriented, allocation-heavy, little modern concurrency; the
// only strong optimization response is duplication simulation on a few
// members (eclipse, jython, tradebeans).
func DaCapoSpecs() []Spec {
	d := func(name string, w Weights) Spec { return Spec{Name: name, Suite: SuiteDaCapo, W: w} }
	return []Spec{
		d("avrora", Weights{Virtual: 700, Events: 300, Bounds: 120, SyncScattered: 150, Framework: 400, FrameworkDepth: 28}),
		d("batik", Weights{Virtual: 600, Alloc: 400, Float: 300, Bounds: 100, Framework: 350, FrameworkDepth: 26}),
		d("eclipse", Weights{Virtual: 800, Alloc: 600, TypeChain: 1400, Bounds: 120, SyncScattered: 200, Framework: 500, FrameworkDepth: 34}),
		d("fop", Weights{Virtual: 600, Alloc: 500, Bounds: 100, TypeChain: 120, Framework: 380, FrameworkDepth: 28}),
		d("h2", Weights{Bounds: 250, Virtual: 500, SyncScattered: 350, Alloc: 300, TypeChain: 250, Framework: 400, FrameworkDepth: 30}),
		d("jython", Weights{Virtual: 900, Alloc: 600, TypeChain: 1400, Bounds: 100, Framework: 450, FrameworkDepth: 32}),
		d("luindex", Weights{Bounds: 220, Virtual: 400, Alloc: 300, TypeChain: 500, Framework: 350, FrameworkDepth: 26}),
		d("lusearch-fix", Weights{Bounds: 220, Virtual: 450, Alloc: 350, SyncScattered: 120, Framework: 350, FrameworkDepth: 26}),
		d("pmd", Weights{Virtual: 700, Alloc: 500, TypeChain: 150, Bounds: 100, Framework: 400, FrameworkDepth: 30}),
		d("sunflow", Weights{Float: 800, Bounds: 150, Virtual: 300, TypeChain: 700, Alloc: 200, Framework: 300, FrameworkDepth: 24}),
		d("tomcat", Weights{Virtual: 600, Alloc: 450, SyncScattered: 300, Events: 200, Bounds: 100, Framework: 420, FrameworkDepth: 30}),
		d("tradebeans", Weights{Virtual: 700, Alloc: 550, TypeChain: 1900, Bounds: 120, SyncScattered: 200, Framework: 450, FrameworkDepth: 32}),
		d("tradesoap", Weights{Virtual: 750, Alloc: 600, Bounds: 120, SyncScattered: 250, Events: 120, Framework: 450, FrameworkDepth: 32}),
		d("xalan", Weights{Virtual: 650, Bounds: 150, Alloc: 350, SyncScattered: 300, Framework: 400, FrameworkDepth: 28}),
	}
}

// ScalaBenchSpecs returns the 12 ScalaBench-like kernels (Table 14):
// functional, allocation- and dispatch-heavy, with guard-motion responses
// on the numeric members (scalap, tmt) and duplication-simulation
// responses on the rewriting-heavy ones (factorie, scalaxb).
func ScalaBenchSpecs() []Spec {
	s := func(name string, w Weights) Spec { return Spec{Name: name, Suite: SuiteScalaBench, W: w} }
	return []Spec{
		s("actors", Weights{Events: 600, Virtual: 400, Alloc: 350, CASSingle: 200, Framework: 300, FrameworkDepth: 26}),
		s("apparat", Weights{Virtual: 700, Alloc: 500, Bounds: 300, CASRetry: 60, Framework: 350, FrameworkDepth: 28}),
		s("factorie", Weights{Alloc: 700, Virtual: 550, TypeChain: 1400, Float: 300, Bounds: 150, Framework: 350, FrameworkDepth: 28}),
		s("kiama", Weights{Virtual: 600, Alloc: 450, TypeChain: 800, Bounds: 120, Framework: 320, FrameworkDepth: 26}),
		s("scalac", Weights{Virtual: 800, Alloc: 600, TypeChain: 250, Bounds: 150, SyncScattered: 100, Framework: 420, FrameworkDepth: 30}),
		s("scaladoc", Weights{Virtual: 700, Alloc: 550, TypeChain: 180, Bounds: 140, Framework: 400, FrameworkDepth: 28}),
		s("scalap", Weights{Bounds: 2600, Virtual: 450, Alloc: 300, TypeChain: 140, Framework: 300, FrameworkDepth: 26}),
		s("scalariform", Weights{Virtual: 550, Alloc: 450, TypeChain: 170, Bounds: 150, Framework: 340, FrameworkDepth: 26}),
		s("scalatest", Weights{Virtual: 550, Alloc: 450, Events: 200, Bounds: 120, Framework: 330, FrameworkDepth: 26}),
		s("scalaxb", Weights{TypeChain: 1500, Bounds: 1800, Virtual: 450, Alloc: 350, Framework: 320, FrameworkDepth: 26}),
		s("specs", Weights{Virtual: 500, Alloc: 400, Events: 150, Bounds: 120, Framework: 320, FrameworkDepth: 26}),
		s("tmt", Weights{Bounds: 4200, Float: 450, Virtual: 350, Alloc: 300, Framework: 280, FrameworkDepth: 24}),
	}
}

// SPECjvmSpecs returns the 21 SPECjvm2008-like kernels (Table 15):
// compute-bound numeric and codec workloads with few objects and almost no
// framework code. The scimark members carry the paper's largest
// guard-motion and vectorization responses (lu.small: GM +137%, LV +58%).
func SPECjvmSpecs() []Spec {
	s := func(name string, w Weights) Spec { return Spec{Name: name, Suite: SuiteSPECjvm, W: w} }
	return []Spec{
		s("compiler.compiler", Weights{Virtual: 600, Alloc: 450, Bounds: 250, TypeChain: 150, Framework: 60, FrameworkDepth: 5}),
		s("compiler.sunflow", Weights{Virtual: 600, Alloc: 500, Bounds: 250, TypeChain: 140, Framework: 60, FrameworkDepth: 5}),
		s("compress", Weights{Bounds: 30, Float: 1600, Vector: 80, Framework: 40, FrameworkDepth: 3}),
		s("crypto.aes", Weights{Bounds: 20, Float: 1500, Vector: 0, Framework: 40, FrameworkDepth: 3}),
		s("crypto.rsa", Weights{Float: 900, Bounds: 40, Framework: 40, FrameworkDepth: 3}),
		s("crypto.signverify", Weights{Bounds: 450, Float: 700, Framework: 40, FrameworkDepth: 3}),
		s("derby", Weights{Bounds: 250, Virtual: 500, SyncScattered: 400, Alloc: 350, Events: 150, Framework: 80, FrameworkDepth: 6}),
		s("mpegaudio", Weights{Bounds: 120, Float: 900, Vector: 60, Framework: 40, FrameworkDepth: 3}),
		s("scimark.fft.large", Weights{Float: 1600, Bounds: 10, Vector: 0, Framework: 30, FrameworkDepth: 2}),
		s("scimark.fft.small", Weights{Float: 1600, Bounds: 12, Vector: 0, Framework: 30, FrameworkDepth: 2}),
		s("scimark.lu.large", Weights{Bounds: 2100, Vector: 1100, Float: 400, Framework: 30, FrameworkDepth: 2}),
		s("scimark.lu.small", Weights{Bounds: 7000, Vector: 4400, Float: 40}),
		s("scimark.monte_carlo", Weights{Float: 1200, TypeChain: 500, Bounds: 80, Framework: 30, FrameworkDepth: 2}),
		s("scimark.sor.large", Weights{Bounds: 3200, Float: 250, Vector: 60, Framework: 30, FrameworkDepth: 2}),
		s("scimark.sor.small", Weights{Bounds: 3250, Float: 250, Vector: 60, Framework: 30, FrameworkDepth: 2}),
		s("scimark.sparse.large", Weights{Bounds: 900, Float: 450, Framework: 30, FrameworkDepth: 2}),
		s("scimark.sparse.small", Weights{Bounds: 900, Float: 470, Framework: 30, FrameworkDepth: 2}),
		s("serial", Weights{Bounds: 300, Virtual: 450, Alloc: 400, TypeChain: 180, Framework: 60, FrameworkDepth: 5}),
		s("sunflow", Weights{Float: 900, Bounds: 250, Virtual: 250, Alloc: 200, Framework: 50, FrameworkDepth: 4}),
		s("xml.transform", Weights{Virtual: 550, Bounds: 280, Alloc: 400, TypeChain: 160, Framework: 60, FrameworkDepth: 5}),
		s("xml.validation", Weights{Bounds: 300, Virtual: 500, Alloc: 350, TypeChain: 140, Framework: 60, FrameworkDepth: 5}),
	}
}
