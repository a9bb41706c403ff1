package rewrite

import "sync"

// Signature assigns result sorts to constructor symbols, so sorted variables
// (e.g. G:procState) only match terms of their sort. Integers always have
// sort "Int", strings "String", and configurations "Configuration"; symbols
// absent from the signature have the empty sort, which only unsorted
// variables match.
type Signature map[string]string

// Built-in sort names.
const (
	SortInt    = "Int"
	SortString = "String"
	SortConfig = "Configuration"
)

// SortOf returns the sort of a term under the signature.
func (s Signature) SortOf(t *Term) string {
	switch t.Kind {
	case Int:
		return SortInt
	case Str:
		return SortString
	case Config:
		return SortConfig
	case Op:
		return s[t.Sym]
	default:
		return ""
	}
}

// Match returns every binding under which pattern matches subject. Matching
// is syntactic for constructor terms and associative-commutative for
// configurations: a configuration pattern's non-variable elements match an
// injective selection of subject elements in any order, and at most one
// configuration-sorted variable absorbs the remainder (Maude's
// "Z:Configuration rest" idiom). Variables bound earlier must match equal
// terms when reused (non-linear patterns).
func Match(pattern, subject *Term, sig Signature) []Binding {
	var out []Binding
	b := getBinding()
	match(pattern, subject, b, sig, func(b Binding) { out = append(out, b.clone()) })
	putBinding(b)
	return out
}

// Matches reports whether pattern matches subject under at least one
// binding.
func Matches(pattern, subject *Term, sig Signature) bool {
	found := false
	b := getBinding()
	match(pattern, subject, b, sig, func(Binding) { found = true })
	putBinding(b)
	return found
}

// bindingPool recycles the scratch Binding the matcher extends in place.
// The backtracker leaves the map empty when enumeration finishes, so a
// pooled map is indistinguishable from a fresh one; putBinding clears
// defensively anyway. Callers of match hand the map to yield by reference —
// the long-standing in-place contract — so yields (and rule callbacks) must
// copy what they keep; pooling only recycles what was already scratch.
var bindingPool = sync.Pool{New: func() any { return make(Binding, 8) }}

func getBinding() Binding { return bindingPool.Get().(Binding) }

func putBinding(b Binding) {
	clear(b)
	bindingPool.Put(b)
}

// configScratch holds matchConfig's per-invocation buffers: the fixed
// element split, the injective-selection bitmap, and the remainder
// collector. Pooled because matchConfig runs once per rule attempt at every
// Config position — the interpreter's hottest allocation site before this
// existed. Nested configuration patterns recurse into a second Get, so each
// live invocation owns its scratch exclusively.
type configScratch struct {
	fixed []*Term
	used  []bool
	rem   []*Term
}

var configScratchPool = sync.Pool{New: func() any { return new(configScratch) }}

// match enumerates bindings, invoking yield for each complete solution. The
// binding passed in is extended in place and restored on backtrack.
func match(pat, subj *Term, b Binding, sig Signature, yield func(Binding)) {
	switch pat.Kind {
	case Int:
		if subj.Kind == Int && subj.IntVal == pat.IntVal {
			yield(b)
		}
	case Str:
		if subj.Kind == Str && subj.StrVal == pat.StrVal {
			yield(b)
		}
	case Var:
		if pat.Sort != "" && sig.SortOf(subj) != pat.Sort {
			return
		}
		if prev, ok := b[pat.Sym]; ok {
			if prev.Equal(subj) {
				yield(b)
			}
			return
		}
		b[pat.Sym] = subj
		yield(b)
		delete(b, pat.Sym)
	case Op:
		if subj.Kind != Op || subj.Sym != pat.Sym || len(subj.Args) != len(pat.Args) {
			return
		}
		matchSeq(pat.Args, subj.Args, 0, b, sig, yield)
	case Config:
		if subj.Kind != Config {
			return
		}
		matchConfig(pat, subj, b, sig, true, yield)
	}
}

// matchSeq matches pattern arguments positionally.
func matchSeq(pats, subjs []*Term, i int, b Binding, sig Signature, yield func(Binding)) {
	if i == len(pats) {
		yield(b)
		return
	}
	match(pats[i], subjs[i], b, sig, func(b2 Binding) {
		matchSeq(pats, subjs, i+1, b2, sig, yield)
	})
}

// matchConfig implements AC matching of a configuration pattern: fixed
// elements are matched against distinct subject elements in any order; at
// most one configuration-sorted (or unsorted) variable element captures the
// remainder. With bindRest false an unbound remainder variable matches the
// leftover elements without being bound (the Goal.Cond contract), so no
// remainder configuration is built; one already bound is still compared.
func matchConfig(pat, subj *Term, b Binding, sig Signature, bindRest bool, yield func(Binding)) {
	sc := configScratchPool.Get().(*configScratch)
	defer configScratchPool.Put(sc)
	fixed := sc.fixed[:0]
	var rest *Term
	for _, e := range pat.Args {
		if e.Kind == Var && (e.Sort == "" || e.Sort == SortConfig) {
			if rest != nil {
				// Two remainder variables are ambiguous; treat the second
				// as unmatchable rather than guessing.
				sc.fixed = fixed
				return
			}
			rest = e
			continue
		}
		fixed = append(fixed, e)
	}
	sc.fixed = fixed // keep grown capacity for the next pooled use
	if rest == nil && len(fixed) != len(subj.Args) {
		return
	}
	if len(fixed) > len(subj.Args) {
		return
	}

	used := sc.used[:0]
	for range subj.Args {
		used = append(used, false)
	}
	sc.used = used
	var assign func(i int)
	assign = func(i int) {
		if i == len(fixed) {
			if rest == nil {
				yield(b)
				return
			}
			prev, bound := b[rest.Sym]
			if !bound && !bindRest {
				yield(b)
				return
			}
			remainder := sc.rem[:0]
			for j, u := range used {
				if !u {
					remainder = append(remainder, subj.Args[j])
				}
			}
			sc.rem = remainder
			remTerm := NewConfig(remainder...) // copies; the scratch is free to reuse
			if bound {
				if prev.Equal(remTerm) {
					yield(b)
				}
				return
			}
			b[rest.Sym] = remTerm
			yield(b)
			delete(b, rest.Sym)
			return
		}
		for j := range subj.Args {
			if used[j] {
				continue
			}
			used[j] = true
			match(fixed[i], subj.Args[j], b, sig, func(b2 Binding) {
				assign(i + 1)
			})
			used[j] = false
		}
	}
	assign(0)
}
