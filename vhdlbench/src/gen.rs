//! Seeded input generators. Every input the benchmark feeds the compiler,
//! kernel and server comes from here, drawn from the `--seed` argument;
//! the program under test only ever sees the generated text.
//!
//! Sizes are fixed and only contents are drawn, so the work a run does
//! varies little from seed to seed: a seed changes constants, gains,
//! orderings and which package an edit touches, not how many stages or
//! units there are.

use std::fmt::Write as _;

use ag_harness::{Rng, Source};
use vhdl_conform::{gen_design, Profile};

/// Derives an independent stream seed from the run seed and a tag, so
/// every generator (and every pass) draws from its own stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    // SplitMix64 finalizer over the combined words.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A clocked RTL pipeline: a package with one constant `k` and a step
/// function, a generic `stage` entity that registers `step(d, g)` on each
/// rising clock edge, and a testbench chaining `stages` instances behind
/// a counting source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pipeline {
    /// Number of stage instances.
    pub stages: usize,
    /// The package constant (`pipe_pkg.k`), the value `serve` edits.
    pub k: i64,
    /// Multiplier of the step function.
    pub mul: i64,
    /// Modulus of the step function and of the source counter.
    pub modulus: i64,
    /// Source counter increment per rising edge.
    pub inc: i64,
    /// Generic `g` of each stage, in chain order.
    pub gains: Vec<i64>,
}

/// Half clock period in ns: rising edges at 5, 15, 25, ... ns.
pub const HALF_PERIOD_NS: u64 = 5;

impl Pipeline {
    /// Draws a pipeline of `stages` stages.
    pub fn generate(seed: u64, stages: usize) -> Pipeline {
        let mut r = Rng::new(mix(seed, 0x5049_5045));
        let modulus = [251i64, 509, 1021][r.u64_in(0, 2) as usize];
        Pipeline {
            stages,
            k: r.u64_in(1, 99) as i64,
            mul: r.u64_in(2, 13) as i64,
            modulus,
            inc: r.u64_in(1, 17) as i64,
            gains: (0..stages).map(|_| r.u64_in(0, 63) as i64).collect(),
        }
    }

    /// The package with constant `k` (the unit `serve` edits).
    pub fn package(&self, k: i64) -> String {
        format!(
            "package pipe_pkg is\n  constant k : integer := {k};\n  \
             function step (x : integer; g : integer) return integer;\nend pipe_pkg;\n"
        )
    }

    /// The package body, the stage entity and the testbench, one file
    /// per unit, in dependency order after the package.
    pub fn files(&self, k: i64) -> Vec<(String, String)> {
        let mut out = vec![("pipe_pkg.vhd".to_string(), self.package(k))];
        out.push((
            "pipe_pkg_body.vhd".to_string(),
            format!(
                "package body pipe_pkg is\n  function step (x : integer; g : integer) return integer is\n  \
                 begin\n    return (x * {} + g + k) mod {};\n  end step;\nend pipe_pkg;\n",
                self.mul, self.modulus
            ),
        ));
        out.push((
            "stage.vhd".to_string(),
            "entity stage is\n  generic (g : integer := 0);\n  \
             port (clk : in bit; d : in integer; q : out integer);\nend stage;\n"
                .to_string(),
        ));
        out.push((
            "stage_rtl.vhd".to_string(),
            "use work.pipe_pkg.all;\narchitecture rtl of stage is\nbegin\n  \
             reg : process (clk)\n  begin\n    if clk = '1' then\n      q <= step(d, g);\n    \
             end if;\n  end process;\nend rtl;\n"
                .to_string(),
        ));
        let mut tb = String::from("entity tb is end;\narchitecture bench of tb is\n");
        tb.push_str(
            "  component stage\n    generic (g : integer := 0);\n    \
             port (clk : in bit; d : in integer; q : out integer);\n  end component;\n",
        );
        tb.push_str("  signal clk : bit := '0';\n");
        for i in 0..=self.stages {
            let _ = writeln!(tb, "  signal s{i} : integer := 0;");
        }
        tb.push_str("begin\n");
        let _ = writeln!(
            tb,
            "  clkgen : process\n  begin\n    clk <= not clk after {HALF_PERIOD_NS} ns;\n    \
             wait on clk;\n  end process;"
        );
        let _ = writeln!(
            tb,
            "  src : process (clk)\n    variable c : integer := 0;\n  begin\n    \
             if clk = '1' then\n      c := (c + {}) mod {};\n      s0 <= c;\n    end if;\n  \
             end process;",
            self.inc, self.modulus
        );
        for (i, g) in self.gains.iter().enumerate() {
            let _ = writeln!(
                tb,
                "  u{n} : stage generic map (g => {g}) port map (clk => clk, d => s{i}, q => s{n});",
                n = i + 1
            );
        }
        tb.push_str("end bench;\n");
        out.push(("tb.vhd".to_string(), tb));
        out
    }

    /// The whole design as one source text.
    pub fn source(&self) -> String {
        self.files(self.k).into_iter().map(|(_, t)| t).collect()
    }

    /// Simulated time (fs) at which exactly `edges` rising edges (and as
    /// many falling edges) have happened.
    pub fn deadline_fs(edges: u64) -> u64 {
        edges * 2 * HALF_PERIOD_NS * 1_000_000
    }
}

/// A conformance-generator design, drawn from the seed's own stream.
pub fn conform_design(seed: u64, profile: Profile) -> vhdl_conform::Design {
    gen_design(&mut Source::from_seed(seed), profile)
}

/// Source length band of heavy conformance designs. The generator draws
/// 24 to 48 processes, about 12 000 to 20 000 characters; a band around
/// the middle keeps compile time and the compiler's peak memory from
/// depending on the seed.
const HEAVY_CHARS: std::ops::RangeInclusive<usize> = 15_000..=17_000;

/// A heavy conformance design whose source length lies in `HEAVY_CHARS`:
/// the first such draw from the seed's own streams.
pub fn heavy_design(seed: u64) -> vhdl_conform::Design {
    (0..)
        .map(|i| conform_design(mix(seed, i), Profile::Heavy))
        .find(|d| HEAVY_CHARS.contains(&d.source.len()))
        .expect("an unbounded search ends at the first fitting draw")
}

/// A multi-file project in the shape of the batch-compile experiment:
/// constant packages and entity/architecture cells, one unit per file,
/// listed out of dependency order.
#[derive(Clone, Debug)]
pub struct Project {
    /// `(file name, text)` in the order given to the compiler.
    pub files: Vec<(String, String)>,
    /// Package each cell's architecture uses.
    pub uses: Vec<usize>,
    /// The package the `edit` step changes.
    pub edit_pkg: usize,
    consts: Vec<i64>,
}

impl Project {
    /// Draws a project of `pkgs` packages and `cells` cells (two units
    /// each). Every package has the same number of users, so the edit
    /// step's work does not depend on which package the seed picks.
    pub fn generate(seed: u64, pkgs: usize, cells: usize, procs: usize) -> Project {
        let mut r = Rng::new(mix(seed, 0x5052_4F4A));
        let mut perm: Vec<usize> = (0..pkgs).collect();
        shuffle(&mut r, &mut perm);
        let uses: Vec<usize> = (0..cells).map(|c| perm[c % pkgs]).collect();
        let consts: Vec<i64> = (0..pkgs).map(|_| r.u64_in(1, 999) as i64).collect();
        let mut files = Vec::new();
        for (c, &p) in uses.iter().enumerate() {
            let mut arch = format!(
                "use work.consts{p}.all;\narchitecture rtl of cell{c} is\n\
                 signal acc : integer := base{p};\nbegin\n"
            );
            for k in 0..procs {
                let _ = write!(
                    arch,
                    "pr{k} : process\nvariable v : integer := {k};\nbegin\n\
                     v := v * {m} + base{p};\n\
                     if v > 500 then\nv := v mod 499;\nend if;\n\
                     for i in 0 to {hi} loop\nv := v + i * base{p};\nend loop;\n\
                     acc <= acc + v;\nwait;\nend process;\n",
                    m = r.u64_in(2, 9),
                    hi = r.u64_in(3, 9),
                );
            }
            arch.push_str("end rtl;\n");
            files.push((format!("cell{c}_rtl.vhd"), arch));
            files.push((
                format!("cell{c}.vhd"),
                format!("entity cell{c} is\nend cell{c};\n"),
            ));
        }
        let mut project = Project {
            files,
            uses,
            edit_pkg: r.u64_in(0, pkgs as u64 - 1) as usize,
            consts,
        };
        for p in 0..pkgs {
            let text = project.package_text(p, project.consts[p]);
            project.files.push((format!("consts{p}.vhd"), text));
        }
        // Architectures before their entities and packages last keeps the
        // list out of dependency order; the shuffle varies it per seed.
        let n = project.files.len();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut r, &mut order);
        project.files = order
            .into_iter()
            .map(|i| project.files[i].clone())
            .collect();
        project
    }

    fn package_text(&self, p: usize, value: i64) -> String {
        format!("package consts{p} is\nconstant base{p} : integer := {value};\nend consts{p};\n")
    }

    /// Total design units.
    pub fn units(&self) -> usize {
        self.files.len()
    }

    /// The file list with the edit package's constant changed.
    pub fn edited(&self) -> Vec<(String, String)> {
        let p = self.edit_pkg;
        let name = format!("consts{p}.vhd");
        let text = self.package_text(p, self.consts[p] + 1);
        self.files
            .iter()
            .map(|(n, t)| {
                if *n == name {
                    (n.clone(), text.clone())
                } else {
                    (n.clone(), t.clone())
                }
            })
            .collect()
    }

    /// Library keys the edit must re-analyze: the package itself and
    /// every architecture that uses it. Nothing depends on an
    /// architecture, so the change stops there.
    pub fn edit_dependents(&self) -> Vec<String> {
        let p = self.edit_pkg;
        let mut keys = vec![format!("pkg.consts{p}")];
        for (c, &u) in self.uses.iter().enumerate() {
            if u == p {
                keys.push(format!("arch.cell{c}.rtl"));
            }
        }
        keys.sort();
        keys
    }
}

fn shuffle<T>(r: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = r.u64_in(0, i as u64) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [1u64, 2, 77] {
            assert_eq!(Pipeline::generate(seed, 8), Pipeline::generate(seed, 8));
            assert_eq!(
                Pipeline::generate(seed, 8).source(),
                Pipeline::generate(seed, 8).source()
            );
            let (a, b) = (
                Project::generate(seed, 4, 16, 2),
                Project::generate(seed, 4, 16, 2),
            );
            assert_eq!(a.files, b.files);
            assert_eq!(a.edit_dependents(), b.edit_dependents());
            assert_eq!(
                conform_design(mix(seed, 3), Profile::Small).source,
                conform_design(mix(seed, 3), Profile::Small).source
            );
            let heavy = heavy_design(seed);
            assert_eq!(heavy.source, heavy_design(seed).source);
            assert!(HEAVY_CHARS.contains(&heavy.source.len()));
        }
        assert_ne!(
            Pipeline::generate(1, 8).source(),
            Pipeline::generate(2, 8).source()
        );
        assert_ne!(
            Project::generate(1, 4, 16, 2).files,
            Project::generate(2, 4, 16, 2).files
        );
    }

    #[test]
    fn project_shape_is_seed_independent() {
        for seed in 1..6u64 {
            let p = Project::generate(seed, 4, 16, 2);
            assert_eq!(p.units(), 4 + 2 * 16);
            assert_eq!(p.edit_dependents().len(), 1 + 16 / 4);
        }
    }
}
