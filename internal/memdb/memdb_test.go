package memdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func allEngines(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	for _, s := range Engines() {
		s := s
		t.Run(s.Name(), func(t *testing.T) { fn(t, s) })
	}
}

func TestPutGetDelete(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		if _, ok := s.Get("missing"); ok {
			t.Error("found missing key")
		}
		s.Put("k1", []byte("v1"))
		s.Put("k2", []byte("v2"))
		if v, ok := s.Get("k1"); !ok || string(v) != "v1" {
			t.Errorf("Get k1 = (%q, %v)", v, ok)
		}
		s.Put("k1", []byte("v1b")) // overwrite
		if v, _ := s.Get("k1"); string(v) != "v1b" {
			t.Errorf("overwrite failed: %q", v)
		}
		if s.Len() != 2 {
			t.Errorf("Len = %d, want 2", s.Len())
		}
		if !s.Delete("k1") {
			t.Error("Delete existing returned false")
		}
		if s.Delete("k1") {
			t.Error("Delete missing returned true")
		}
		if _, ok := s.Get("k1"); ok {
			t.Error("deleted key still present")
		}
		if s.Len() != 1 {
			t.Errorf("Len after delete = %d", s.Len())
		}
	})
}

func TestReinsertAfterDelete(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		s.Put("x", []byte("1"))
		s.Delete("x")
		s.Put("x", []byte("2"))
		if v, ok := s.Get("x"); !ok || string(v) != "2" {
			t.Errorf("reinserted = (%q, %v)", v, ok)
		}
		if s.Len() != 1 {
			t.Errorf("Len = %d", s.Len())
		}
	})
}

func TestManyKeysSortedRange(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		const n = 2000
		perm := rand.New(rand.NewSource(1)).Perm(n)
		for _, i := range perm {
			s.Put(fmt.Sprintf("key-%06d", i), []byte{byte(i)})
		}
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		// Full scan is ordered and complete.
		var keys []string
		s.Range("", "zzzz", func(k string, v []byte) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != n {
			t.Fatalf("range visited %d keys, want %d", len(keys), n)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("range out of order at %d: %q >= %q", i, keys[i-1], keys[i])
			}
		}
		// Bounded range.
		count := 0
		s.Range("key-000100", "key-000200", func(k string, v []byte) bool {
			count++
			return true
		})
		if count != 100 {
			t.Errorf("bounded range visited %d, want 100", count)
		}
		// Early termination.
		count = 0
		s.Range("", "zzzz", func(string, []byte) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Errorf("early-terminated range visited %d", count)
		}
	})
}

func TestRangeSkipsDeleted(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		for i := 0; i < 10; i++ {
			s.Put(fmt.Sprintf("k%d", i), []byte("v"))
		}
		s.Delete("k3")
		s.Delete("k7")
		count := 0
		s.Range("", "z", func(k string, v []byte) bool {
			if k == "k3" || k == "k7" {
				t.Errorf("deleted key %q visited", k)
			}
			count++
			return true
		})
		if count != 8 {
			t.Errorf("visited %d, want 8", count)
		}
	})
}

func TestConcurrentDisjointWriters(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		const workers, perWorker = 8, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					key := fmt.Sprintf("w%d-k%d", w, i)
					s.Put(key, []byte(key))
				}
			}(w)
		}
		wg.Wait()
		if s.Len() != workers*perWorker {
			t.Errorf("Len = %d, want %d", s.Len(), workers*perWorker)
		}
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if v, ok := s.Get(key); !ok || string(v) != key {
					t.Fatalf("lost write %q", key)
				}
			}
		}
	})
}

func TestConcurrentMixedWorkload(t *testing.T) {
	allEngines(t, func(t *testing.T, s Store) {
		for i := 0; i < 100; i++ {
			s.Put(fmt.Sprintf("base-%03d", i), []byte("x"))
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 500; i++ {
					key := fmt.Sprintf("base-%03d", rng.Intn(100))
					switch rng.Intn(3) {
					case 0:
						s.Put(key, []byte{byte(i)})
					case 1:
						s.Get(key)
					case 2:
						s.Range("base-000", "base-050", func(string, []byte) bool { return true })
					}
				}
			}(w)
		}
		wg.Wait()
		// Every base key still resolves (no deletes in this mix).
		for i := 0; i < 100; i++ {
			if _, ok := s.Get(fmt.Sprintf("base-%03d", i)); !ok {
				t.Fatalf("key base-%03d lost", i)
			}
		}
	})
}

// propertyKeys is the key space of TestPropertyMatchesMapModel: enough
// keys for the B-tree to split, short keys and keys holding \x00 (which
// tie with shorter keys on a zero-padded abbreviation), and groups of keys
// that share their first 8 bytes, so a range bound drawn from the space
// ties on the abbreviation with keys on both sides of it.
func propertyKeys() []string {
	keys := []string{
		"", "\x00", "\x00\x00", "a", "k", "k\x00", "k\x00\x00", "k\x00a", "k0",
		"key", "key-0001", "key-0001\x00", "key-0001\x00\x00", "key-0001\x00z",
		"key-00010", "key-0001~", "key-0001\xff", "key-0002", "key-\x00\x00\x00\x00",
		"zzzzzzzz", "zzzzzzzz\x00", "zzzzzzzzz", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	}
	for i := 0; i < 200; i += 3 {
		keys = append(keys, fmt.Sprintf("key-%06d", i*5)) // "key-0000".."key-0009"
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	return keys
}

// Property: every engine agrees with a plain map reference model under a
// random operation sequence, ranges included.
func TestPropertyMatchesMapModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint8
	}
	keys := propertyKeys()
	key := func(b uint8) string { return keys[int(b)%len(keys)] }
	for _, engine := range []func() Store{
		func() Store { return NewShardedHash(4) },
		func() Store { return NewBTree() },
		func() Store { return NewSkipList() },
	} {
		f := func(ops [400]op) bool {
			s := engine()
			model := map[string][]byte{}
			// del deletes k from both; a B-tree delete must also keep the
			// invariant BTree documents and never add height.
			bt, _ := s.(*BTree)
			del := func(k string) bool {
				var before int
				if bt != nil {
					before, _ = btreeViolation(bt)
				}
				got := s.Delete(k)
				_, want := model[k]
				delete(model, k)
				if bt != nil {
					if after, v := btreeViolation(bt); v != "" || after > before {
						t.Logf("after Delete(%q): %q, height %d → %d", k, v, before, after)
						return false
					}
				}
				return got == want
			}
			for _, o := range ops {
				k := key(o.Key)
				switch o.Kind % 5 {
				case 0, 1:
					v := []byte{o.Value}
					s.Put(k, v)
					model[k] = v
				case 2:
					got, ok := s.Get(k)
					want, wok := model[k]
					if ok != wok || (ok && string(got) != string(want)) {
						return false
					}
				case 3:
					if !del(k) {
						return false
					}
				case 4:
					// [from, to) from the key space, or the db-shootout
					// shape [k, k+"~"); stop after limit visits when
					// limit > 0.
					from, to := k, key(o.Value)
					if o.Value%4 == 0 {
						to = from + "~"
					}
					limit := int(o.Kind/5) % 8
					var want []string
					for mk := range model {
						if mk >= from && mk < to {
							want = append(want, mk)
						}
					}
					slices.Sort(want)
					if limit > 0 && len(want) > limit {
						want = want[:limit]
					}
					var got []string
					s.Range(from, to, func(k string, v []byte) bool {
						got = append(got, k)
						if string(v) != string(model[k]) {
							got = append(got, "<wrong value>")
						}
						return limit == 0 || len(got) < limit
					})
					if !slices.Equal(got, want) {
						return false
					}
				}
			}
			if s.Len() != len(model) {
				return false
			}
			// Drain the store in the order the ops named the keys, so that
			// deletes empty nodes below the root and shrink the B-tree.
			for _, o := range ops {
				if !del(key(o.Key)) {
					return false
				}
			}
			for _, k := range keys {
				if !del(k) {
					return false
				}
			}
			return s.Len() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", engine().Name(), err)
		}
	}
}

// The abbreviation orders strictly only where the strings do: abbrev(a) <
// abbrev(b) implies a < b, and so a <= b implies abbrev(a) <= abbrev(b).
// b shares a prefix of up to 9 bytes with a, so ties and near-ties occur.
func TestAbbrevOrderProperty(t *testing.T) {
	f := func(a, tail []byte, shared uint8) bool {
		n := min(int(shared%10), len(a))
		as, bs := string(a), string(a[:n])+string(tail)
		for _, p := range [][2]string{{as, bs}, {bs, as}} {
			x, y := p[0], p[1]
			if abbrev(x) < abbrev(y) && !(x < y) {
				return false
			}
			if x <= y && abbrev(x) > abbrev(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		key  string
		want uint64
	}{
		{"", 0},
		{"a", 0x61 << 56},
		{"k\x00", 0x6b << 56},
		{"key-000123", 0x6b65792d30303031},
	} {
		if got := abbrev(c.key); got != c.want {
			t.Errorf("abbrev(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

func TestBTreeSplits(t *testing.T) {
	// Insert enough ascending keys to force multiple root splits.
	bt := NewBTree()
	const n = 5000
	for i := 0; i < n; i++ {
		bt.Put(fmt.Sprintf("%08d", i), []byte{1})
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d", bt.Len())
	}
	for i := 0; i < n; i += 97 {
		if _, ok := bt.Get(fmt.Sprintf("%08d", i)); !ok {
			t.Fatalf("missing key %d after splits", i)
		}
	}
	// Delete every third key, verify the rest survive.
	for i := 0; i < n; i += 3 {
		if !bt.Delete(fmt.Sprintf("%08d", i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := bt.Get(fmt.Sprintf("%08d", i))
		if (i%3 == 0) == ok {
			t.Fatalf("key %d presence = %v after deletions", i, ok)
		}
	}
}

// Deleting an internal key whose in-order predecessor leaf earlier
// deletes have emptied must neither panic nor lose keys: the predecessor
// comes from the rightmost non-empty position of the left subtree, and a
// left subtree with no keys is dropped with the key. A root that this
// leaves with no keys and one child gives way to the child.
func TestBTreeDeleteEmptiedPredecessor(t *testing.T) {
	bt := NewBTree()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < 40; i++ {
		bt.Put(key(i), []byte{byte(i)})
	}
	if len(bt.root.keys) != 1 || bt.root.keys[0] != "k016" {
		t.Fatalf("root keys = %q, want [k016]", bt.root.keys)
	}
	for _, k := range slices.Clone(bt.root.children[0].keys) {
		if !bt.Delete(k) {
			t.Fatalf("Delete(%q) = false", k)
		}
	}
	if !bt.Delete("k016") {
		t.Fatal("Delete(k016) = false")
	}
	var got []string
	bt.Range("", "~", func(k string, _ []byte) bool {
		got = append(got, k)
		return true
	})
	var want []string
	for i := 17; i < 40; i++ {
		want = append(want, key(i))
	}
	if !slices.Equal(got, want) || bt.Len() != len(want) {
		t.Fatalf("after deletes: Len %d, Range %q, want %q", bt.Len(), got, want)
	}
	if !bt.root.leaf() {
		t.Fatalf("root kept its height: %d keys, %d children, want the remaining leaf",
			len(bt.root.keys), len(bt.root.children))
	}
	// The tree stays usable: reinsert everything and delete it again.
	for i := 0; i < 40; i++ {
		bt.Put(key(i), []byte{byte(i)})
	}
	for i := 39; i >= 0; i-- {
		if !bt.Delete(key(i)) {
			t.Fatalf("second round: Delete(%q) = false", key(i))
		}
	}
	if bt.Len() != 0 {
		t.Fatalf("Len = %d after deleting every key", bt.Len())
	}
	checkBTree(t, bt)

	// Three levels: empty the last leaf under the root's first child, then
	// delete the root's first key. Its predecessor is that child's last key,
	// which leaves with the emptied leaf to its right.
	bt = NewBTree()
	for i := 0; i < 1200; i++ {
		bt.Put(fmt.Sprintf("k%04d", i), nil)
	}
	inner := bt.root.children[0]
	if inner.leaf() {
		t.Fatal("tree has fewer than three levels")
	}
	pred := inner.keys[len(inner.keys)-1]
	for _, k := range slices.Clone(inner.children[len(inner.children)-1].keys) {
		bt.Delete(k)
	}
	if !bt.Delete(bt.root.keys[0]) {
		t.Fatal("Delete of the root's first key = false")
	}
	if bt.root.keys[0] != pred {
		t.Fatalf("root's first key = %q, want the predecessor %q", bt.root.keys[0], pred)
	}
	checkBTree(t, bt)

	// Delete everything left in key order: each root key goes once its
	// left subtree is empty, taking that subtree with it, until the root
	// is the last leaf.
	for i := 0; i < 1200; i++ {
		bt.Delete(fmt.Sprintf("k%04d", i))
		checkBTree(t, bt)
	}
	if bt.Len() != 0 || !bt.root.leaf() {
		t.Fatalf("after deleting every key: Len %d, root leaf %v", bt.Len(), bt.root.leaf())
	}
}

// btreeViolation returns how bt breaks the invariant BTree documents, or
// "" along with the tree's height: keys in order with one child more than
// keys in every internal node, size keys in all, every leaf at one depth,
// and a root that is a leaf or holds a key.
func btreeViolation(bt *BTree) (height int, violation string) {
	if !bt.root.leaf() && len(bt.root.keys) == 0 {
		return 0, fmt.Sprintf("root is internal with no keys and %d children", len(bt.root.children))
	}
	keys, leafDepth := 0, -1
	var walk func(n *btreeNode, depth int, lo, hi string, hasLo, hasHi bool) string
	walk = func(n *btreeNode, depth int, lo, hi string, hasLo, hasHi bool) string {
		keys += len(n.keys)
		for i, k := range n.keys {
			if (hasLo && k <= lo) || (hasHi && k >= hi) || (i > 0 && k <= n.keys[i-1]) {
				return fmt.Sprintf("key %q out of order in (%q, %q)", k, lo, hi)
			}
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				return fmt.Sprintf("leaves at depths %d and %d", leafDepth, depth)
			}
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Sprintf("node with %d keys has %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi, cHasLo, cHasHi := lo, hi, hasLo, hasHi
			if i > 0 {
				clo, cHasLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi, cHasHi = n.keys[i], true
			}
			if v := walk(c, depth+1, clo, chi, cHasLo, cHasHi); v != "" {
				return v
			}
		}
		return ""
	}
	if v := walk(bt.root, 0, "", "", false, false); v != "" {
		return 0, v
	}
	if keys != bt.size {
		return 0, fmt.Sprintf("%d keys reachable, size %d", keys, bt.size)
	}
	return leafDepth, ""
}

// checkBTree fails the test if bt breaks its invariant.
func checkBTree(t *testing.T, bt *BTree) {
	t.Helper()
	if _, v := btreeViolation(bt); v != "" {
		t.Fatal(v)
	}
}

// A node is allocated once at full capacity, so an insert never regrows it;
// a hash Get and a range that matches nothing allocate nothing, and a
// range that matches one key allocates only the buffer it sorts.
func TestAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const runs = 20
	h := NewShardedHash(16)
	for i := 0; i < 1000; i++ {
		h.Put(fmt.Sprintf("key-%06d", i), []byte("v"))
	}
	hashGates := []struct {
		name string
		want float64
		run  func()
	}{
		{"ShardedHash.Get", 0, func() { h.Get("key-000500") }},
		{"ShardedHash.Range with no match", 0, func() {
			h.Range("key-000500x", "key-000500x~", func(string, []byte) bool { return true })
		}},
		{"ShardedHash.Range with one match", 1, func() {
			h.Range("key-000500", "key-000500~", func(string, []byte) bool { return true })
		}},
	}
	for _, g := range hashGates {
		if got := testing.AllocsPerRun(runs, g.run); got != g.want {
			t.Errorf("%s: %v allocations, want %v", g.name, got, g.want)
		}
	}

	// Each run fills one fresh tree's root leaf, one new key at a time.
	keys := make([]string, btreeOrder)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	trees := make([]*BTree, runs+1)
	for i := range trees {
		trees[i] = NewBTree()
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		bt := trees[next]
		next++
		for _, k := range keys {
			bt.Put(k, nil)
		}
	}); got != 0 {
		t.Errorf("BTree.Put of %d new keys into a non-full leaf: %v allocations, want 0", btreeOrder, got)
	}
}

func TestSkipListLevels(t *testing.T) {
	if l := levelFor("some-key"); l < 1 || l > skipMaxLevel {
		t.Errorf("levelFor out of range: %d", l)
	}
	if levelFor("abc") != levelFor("abc") {
		t.Error("levelFor not deterministic")
	}
}

func TestEnginesLineup(t *testing.T) {
	engines := Engines()
	if len(engines) != 3 {
		t.Fatalf("lineup = %d engines", len(engines))
	}
	names := map[string]bool{}
	for _, e := range engines {
		names[e.Name()] = true
	}
	for _, want := range []string{"sharded-hash", "btree", "skiplist"} {
		if !names[want] {
			t.Errorf("missing engine %q", want)
		}
	}
}
