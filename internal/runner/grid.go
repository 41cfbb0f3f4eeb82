package runner

// Grid describes an experiment sweep as a cross product of
// architectures, workloads, and option variants. Expansion order is
// fixed (arch-major, then kernel, then variant, then repeat), and every
// job's seed is derived from BaseSeed and the job's grid position, so
// the same Grid always yields the same []Job no matter how — or how
// concurrently — it is later executed.
type Grid struct {
	Kind Kind
	// Archs is the architecture axis (presets; the CLI also takes "file:<path>").
	Archs []string
	// Kernels is the workload axis; experiments without a workload
	// (static, chase, loaded) leave it empty.
	Kernels []string
	// Variants is the option axis (e.g. one Options per scheduler under
	// ablation). Empty means a single zero-value variant.
	Variants []Options
	// Repeats runs each grid point with that many distinct seeds
	// (default 1).
	Repeats int
	// BaseSeed roots the deterministic per-job seed derivation
	// (default 42, the seed the paper reproduction uses throughout).
	BaseSeed uint64
	// FixedSeed gives every job BaseSeed verbatim instead of a derived
	// per-job stream — ablation grids set it so each variant sees the
	// identical workload input and differs only in the knob under study.
	FixedSeed bool
}

// DefaultBaseSeed roots per-job seeding when a Grid leaves BaseSeed 0.
const DefaultBaseSeed = 42

// Size returns the number of jobs the grid expands to.
func (g Grid) Size() int {
	return max(len(g.Archs), 1) * max(len(g.Kernels), 1) * max(len(g.Variants), 1) * max(g.Repeats, 1)
}

// Jobs expands the grid into its job list.
func (g Grid) Jobs() []Job {
	archs := g.Archs
	if len(archs) == 0 {
		archs = []string{""}
	}
	kernels := g.Kernels
	if len(kernels) == 0 {
		kernels = []string{""}
	}
	variants := g.Variants
	if len(variants) == 0 {
		variants = []Options{{}}
	}
	repeats := max(g.Repeats, 1)
	base := g.BaseSeed
	if base == 0 {
		base = DefaultBaseSeed
	}

	jobs := make([]Job, 0, g.Size())
	for _, arch := range archs {
		for _, kernel := range kernels {
			for _, opt := range variants {
				for rep := 0; rep < repeats; rep++ {
					seed := opt.Seed
					if seed == 0 {
						if g.FixedSeed {
							seed = base
						} else {
							seed = JobSeed(base, len(jobs))
						}
					}
					jobs = append(jobs, Job{
						Kind:    g.Kind,
						Arch:    arch,
						Kernel:  kernel,
						Options: opt,
						Seed:    seed,
					})
				}
			}
		}
	}
	return jobs
}

// JobSeed derives the seed for the index-th job of a grid rooted at
// base. The mix is SplitMix64: statistically independent streams per
// index, identical across runs and worker counts.
func JobSeed(base uint64, index int) uint64 {
	z := base + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}
