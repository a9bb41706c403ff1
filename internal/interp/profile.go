package interp

import (
	"fmt"
	"sort"
	"strings"
)

// BlockProfile is the interpreter's hot-block profile: how many counted
// instructions executed inside each basic block of the run. It answers the
// ChronoPriv-adjacent question "where did the dynamic instruction count come
// from?" — the block-granularity analogue of the paper's per-phase counts.
// Enable with Options.Profile; read from Result.Profile.
//
// The interpreter adds each charged segment's size to a pre-resolved slot
// (one slice index per segment, not per instruction) and pays no map or
// lock cost; the run is single-goroutine, so plain int64 counters suffice.
type BlockProfile struct {
	counts map[*cfunc][]int64 // per compiled function, one counter per block
}

func newBlockProfile() *BlockProfile {
	return &BlockProfile{counts: make(map[*cfunc][]int64)}
}

// slots returns (allocating on first use) cf's per-block counters.
func (p *BlockProfile) slots(cf *cfunc) []int64 {
	s := p.counts[cf]
	if s == nil {
		s = make([]int64, len(cf.blocks))
		p.counts[cf] = s
	}
	return s
}

// BlockCount is one profile row: a basic block and the counted instructions
// executed in it.
type BlockCount struct {
	// Fn and Block name the basic block (@fn:block).
	Fn, Block string
	// Steps is the number of counted instructions executed in the block.
	Steps int64
}

// Total returns the profile's total counted instructions (equals the run's
// Result.Steps). Nil-safe.
func (p *BlockProfile) Total() int64 {
	if p == nil {
		return 0
	}
	var total int64
	for _, slots := range p.counts {
		for _, n := range slots {
			total += n
		}
	}
	return total
}

// Top returns the n hottest blocks, sorted by descending step count with
// (fn, block) name as the deterministic tiebreak. n <= 0 returns every
// block that executed at least one instruction. Nil-safe.
func (p *BlockProfile) Top(n int) []BlockCount {
	if p == nil {
		return nil
	}
	var out []BlockCount
	for cf, slots := range p.counts {
		for bi, steps := range slots {
			if steps == 0 {
				continue
			}
			out = append(out, BlockCount{Fn: cf.fn.Name, Block: cf.blocks[bi].b.Name, Steps: steps})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Steps != out[j].Steps {
			return out[i].Steps > out[j].Steps
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Block < out[j].Block
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// String renders the full profile as the top-20 table.
func (p *BlockProfile) String() string { return p.Table(20) }

// Table renders the top-n hot blocks with each block's share of the run's
// total counted instructions.
func (p *BlockProfile) Table(n int) string {
	total := p.Total()
	rows := p.Top(n)
	var b strings.Builder
	fmt.Fprintf(&b, "hot blocks (%d of %d executed, %d instructions total)\n",
		len(rows), len(p.Top(0)), total)
	fmt.Fprintf(&b, "%-32s %14s %8s\n", "Block", "Instructions", "Share")
	for _, bc := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(bc.Steps) / float64(total)
		}
		fmt.Fprintf(&b, "%-32s %14d %7.2f%%\n", "@"+bc.Fn+":"+bc.Block, bc.Steps, share)
	}
	return b.String()
}
