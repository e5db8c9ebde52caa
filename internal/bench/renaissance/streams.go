package renaissance

import (
	"fmt"
	"strings"

	"renaissance/internal/core"
	"renaissance/internal/rx"
	"renaissance/internal/streams"
)

func init() {
	register("scrabble",
		"Solves the Scrabble puzzle with the streams library.",
		[]string{"data-parallel", "memory-bound"}, newScrabble)
	register("rx-scrabble",
		"Solves the Scrabble puzzle with the Rx observable library.",
		[]string{"streaming"}, newRxScrabble)
	register("streams-mnemonics",
		"Computes phone mnemonics with stream flat-maps.",
		[]string{"data-parallel", "memory-bound"}, newMnemonics)
}

// scrabbleScores are the standard letter scores.
var scrabbleScores = map[rune]int{
	'a': 1, 'b': 3, 'c': 3, 'd': 2, 'e': 1, 'f': 4, 'g': 2, 'h': 4,
	'i': 1, 'j': 8, 'k': 5, 'l': 1, 'm': 3, 'n': 1, 'o': 1, 'p': 3,
	'q': 10, 'r': 1, 's': 1, 't': 1, 'u': 1, 'v': 4, 'w': 4, 'x': 8,
	'y': 4, 'z': 10,
}

// wordCorpus deterministically generates a pseudo-English word list.
func wordCorpus(cfg core.Config, n int) []string {
	rng := cfg.Rand("scrabble-words")
	syllables := []string{"ba", "re", "to", "qua", "zen", "lix", "mor", "da", "pi", "shu", "gr", "ost", "an", "el"}
	words := make([]string, n)
	for i := range words {
		var b strings.Builder
		parts := 2 + rng.Intn(3)
		for p := 0; p < parts; p++ {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		words[i] = b.String()
	}
	return words
}

// availableLetters is the letter rack the puzzle plays against.
const availableLetters = "aabdeeilmnorstuz"

// rackHistogram counts the rack's letters.
func rackHistogram() map[rune]int {
	h := map[rune]int{}
	for _, r := range availableLetters {
		h[r]++
	}
	return h
}

// scrabbleScore scores a word against the rack, or -1 if unplayable.
func scrabbleScore(word string, rack map[rune]int) int {
	used := map[rune]int{}
	score := 0
	for _, r := range word {
		used[r]++
		if used[r] > rack[r] {
			return -1
		}
		score += scrabbleScores[r]
	}
	return score
}

// referenceBest computes the expected answer with a straightforward loop.
func referenceBest(words []string) int {
	rack := rackHistogram()
	best := 0
	for _, w := range words {
		if s := scrabbleScore(w, rack); s > best {
			best = s
		}
	}
	return best
}

type scrabbleWorkload struct {
	words []string
	want  int
	got   int
}

func newScrabble(cfg core.Config) (core.Workload, error) {
	words := wordCorpus(cfg, cfg.Scale(20000))
	return &scrabbleWorkload{words: words, want: referenceBest(words)}, nil
}

func (w *scrabbleWorkload) RunIteration() error {
	rack := rackHistogram()
	// The stream pipeline of the original: build per-word histograms with
	// a counting collector (groupingBy(identity(), counting())), filter
	// playable words, map to scores, take the maximum.
	scored := streams.Map(
		streams.FromSlice(w.words).Filter(func(word string) bool {
			hist := streams.CountBy(streams.FromSlice([]rune(word)), func(r rune) rune { return r })
			for r, n := range hist {
				if n > rack[r] {
					return false
				}
			}
			return true
		}),
		func(word string) int {
			return streams.Reduce(streams.FromSlice([]rune(word)), 0,
				func(acc int, r rune) int { return acc + scrabbleScores[r] })
		})
	best := streams.Reduce(scored, 0, func(a, b int) int {
		if b > a {
			return b
		}
		return a
	})
	w.got = best
	return nil
}

func (w *scrabbleWorkload) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("scrabble: best score %d, want %d", w.got, w.want)
	}
	return nil
}

type rxScrabbleWorkload struct {
	words []string
	want  int
	got   int
}

func newRxScrabble(cfg core.Config) (core.Workload, error) {
	words := wordCorpus(cfg, cfg.Scale(12000))
	return &rxScrabbleWorkload{words: words, want: referenceBest(words)}, nil
}

func (w *rxScrabbleWorkload) RunIteration() error {
	rack := rackHistogram()
	scores := rx.Map(
		rx.Filter(rx.FromSlice(w.words), func(word string) bool {
			used := map[rune]int{}
			for _, r := range word {
				used[r]++
				if used[r] > rack[r] {
					return false
				}
			}
			return true
		}),
		func(word string) int {
			s := 0
			for _, r := range word {
				s += scrabbleScores[r]
			}
			return s
		})
	best, err := rx.Reduce(scores, 0, func(a, b int) int {
		if b > a {
			return b
		}
		return a
	}).BlockingFirst()
	if err != nil {
		return err
	}
	w.got = best
	return nil
}

func (w *rxScrabbleWorkload) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("rx-scrabble: best score %d, want %d", w.got, w.want)
	}
	return nil
}

// phone keypad letters, as in the original Phone Mnemonics benchmark.
var keypad = map[rune]string{
	'2': "abc", '3': "def", '4': "ghi", '5': "jkl",
	'6': "mno", '7': "pqrs", '8': "tuv", '9': "wxyz",
}

type mnemonicsWorkload struct {
	numbers []string
	want    int
	got     int
}

func newMnemonics(cfg core.Config) (core.Workload, error) {
	rng := cfg.Rand("mnemonics")
	count := cfg.Scale(40)
	numbers := make([]string, count)
	for i := range numbers {
		var b strings.Builder
		for d := 0; d < 6; d++ {
			b.WriteRune(rune('2' + rng.Intn(8)))
		}
		numbers[i] = b.String()
	}
	w := &mnemonicsWorkload{numbers: numbers}
	// Expected total expansions: product of keypad sizes per number.
	for _, num := range numbers {
		n := 1
		for _, d := range num {
			n *= len(keypad[d])
		}
		w.want += n
	}
	return w, nil
}

func (w *mnemonicsWorkload) RunIteration() error {
	total := 0
	for _, number := range w.numbers {
		s := streams.Of("")
		for _, digit := range number {
			letters := keypad[digit]
			s = streams.FlatMap(s, func(prefix string) streams.Stream[string] {
				out := make([]string, 0, len(letters))
				for _, l := range letters {
					out = append(out, prefix+string(l))
				}
				return streams.FromSlice(out)
			})
		}
		total += s.Count()
	}
	w.got = total
	return nil
}

func (w *mnemonicsWorkload) Validate() error {
	if w.got != w.want {
		return fmt.Errorf("streams-mnemonics: %d expansions, want %d", w.got, w.want)
	}
	return nil
}
