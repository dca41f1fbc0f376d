package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/deps"
)

// TestQuickRandomProgramsMatchSerial generates random straight-line task
// programs over a handful of cells (reads, writes, read-writes) and runs
// them through the full runtime on every ablation variant. Because the
// dependency graph must linearize conflicting accesses in program order,
// the outcome must equal a serial execution of the same program.
func TestQuickRandomProgramsMatchSerial(t *testing.T) {
	type op struct {
		cell  int
		write bool
	}
	type program [][]op // task -> ops

	genProgram := func(r *rand.Rand) program {
		nTasks := 3 + r.Intn(12)
		prog := make(program, nTasks)
		for i := range prog {
			nOps := 1 + r.Intn(3)
			used := map[int]bool{}
			for o := 0; o < nOps; o++ {
				c := r.Intn(5)
				if used[c] {
					continue
				}
				used[c] = true
				prog[i] = append(prog[i], op{cell: c, write: r.Intn(2) == 0})
			}
		}
		return prog
	}

	runProgram := func(rt *Runtime, prog program, cells []float64) {
		rt.Run(func(c *Ctx) {
			for ti := range prog {
				ops := prog[ti]
				ti := ti
				specs := make([]AccessSpec, 0, len(ops))
				for _, o := range ops {
					if o.write {
						specs = append(specs, InOut(&cells[o.cell]))
					} else {
						specs = append(specs, In(&cells[o.cell]))
					}
				}
				c.Spawn(func(*Ctx) {
					for _, o := range ops {
						if o.write {
							cells[o.cell] = cells[o.cell]*3 + float64(ti+1)
						}
					}
				}, specs...)
			}
			c.Taskwait()
		})
	}

	serialProgram := func(prog program, cells []float64) {
		for ti := range prog {
			for _, o := range prog[ti] {
				if o.write {
					cells[o.cell] = cells[o.cell]*3 + float64(ti+1)
				}
			}
		}
	}

	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				prog := genProgram(r)
				got := make([]float64, 5)
				runProgram(rt, prog, got)
				want := make([]float64, 5)
				serialProgram(prog, want)
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d: cell %d = %v, want %v", seed, i, got[i], want[i])
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeepNesting spawns a chain of nested tasks several levels deep,
// each level depending on the same cell, and checks the total ordering.
func TestDeepNesting(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var x float64
	const depth = 12
	var grow func(c *Ctx, level int)
	grow = func(c *Ctx, level int) {
		x = x*2 + 1
		if level < depth {
			c.Spawn(func(cc *Ctx) { grow(cc, level+1) }, InOut(&x))
		}
	}
	rt.Run(func(c *Ctx) {
		c.Spawn(func(cc *Ctx) { grow(cc, 1) }, InOut(&x))
		c.Spawn(func(*Ctx) { x += 1000 }, InOut(&x))
	})
	// depth doublings+1 then +1000: x = 2^depth - 1 + 1000.
	want := float64((1 << depth) - 1 + 1000)
	if x != want {
		t.Fatalf("x = %v, want %v", x, want)
	}
}

// TestTaskwaitInsideNestedTask exercises inline work execution during a
// nested taskwait.
func TestTaskwaitInsideNestedTask(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var sum float64
	rt.Run(func(c *Ctx) {
		c.Spawn(func(cc *Ctx) {
			local := make([]float64, 8)
			for i := range local {
				i := i
				cc.Spawn(func(*Ctx) { local[i] = float64(i) }, Out(&local[i]))
			}
			cc.Taskwait()
			for _, v := range local {
				sum += v
			}
		})
		c.Taskwait()
	})
	if sum != 28 {
		t.Fatalf("sum = %v, want 28", sum)
	}
}

// TestManyReductionDomains runs several independent reductions in one
// task graph; each must combine into its own target.
func TestManyReductionDomains(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	targets := make([]float64, 6)
	rt.Run(func(c *Ctx) {
		for ti := range targets {
			for k := 0; k < 9; k++ {
				ti := ti
				c.Spawn(func(cc *Ctx) {
					cc.ReductionBuffer(&targets[ti])[0]++
				}, RedSpec(&targets[ti], 1, deps.OpSum))
			}
		}
		c.Taskwait()
	})
	for i, v := range targets {
		if v != 9 {
			t.Fatalf("targets[%d] = %v, want 9", i, v)
		}
	}
}

// TestReductionAcrossTaskwaitReuse reuses the same reduction target in
// two phases separated by a taskwait: the second phase accumulates on
// top of the combined first phase.
func TestReductionAcrossTaskwaitReuse(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var acc float64
	rt.Run(func(c *Ctx) {
		for k := 0; k < 5; k++ {
			c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&acc)[0]++ },
				RedSpec(&acc, 1, deps.OpSum))
		}
		c.Taskwait()
		if acc != 5 {
			t.Errorf("after first phase acc = %v, want 5", acc)
		}
		for k := 0; k < 3; k++ {
			c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&acc)[0]++ },
				RedSpec(&acc, 1, deps.OpSum))
		}
		c.Taskwait()
	})
	if acc != 8 {
		t.Fatalf("acc = %v, want 8", acc)
	}
}

// TestMixedAccessTypesOneAddress chains every access type on one cell
// and requires program-order effects.
func TestMixedAccessTypesOneAddress(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			var x float64
			var reads []float64
			rt.Run(func(c *Ctx) {
				c.Spawn(func(*Ctx) { x = 2 }, Out(&x))
				c.Spawn(func(*Ctx) { reads = append(reads, x) }, In(&x))
				c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&x)[0] += 3 },
					RedSpec(&x, 1, deps.OpSum))
				c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&x)[0] += 4 },
					RedSpec(&x, 1, deps.OpSum))
				c.Spawn(func(*Ctx) { x *= 10 }, InOut(&x))
				c.Spawn(func(*Ctx) { reads = append(reads, x) }, In(&x))
			})
			// x: 2, then +3+4 combined = 9, then *10 = 90.
			if x != 90 {
				t.Fatalf("%s: x = %v, want 90", v, x)
			}
			if len(reads) != 2 || reads[0] != 2 || reads[1] != 90 {
				t.Fatalf("%s: reads = %v", v, reads)
			}
		})
	}
}
