//! The CPU level the kernels were compiled for, checked at run time.
//!
//! The workspace builds for x86-64-v3 (`.cargo/config.toml`), so the
//! compiler may emit AVX2 instructions anywhere in the program. On a CPU
//! without them the first such instruction kills the process with
//! `SIGILL`; [`check_cpu`] turns that into a typed error when it is reached
//! first. It compares the v3 features this build was compiled with
//! (`cfg!(target_feature = …)`) against the `flags` line of
//! `/proc/cpuinfo`, which lists what the CPU and the kernel support.
//!
//! `is_x86_feature_detected!` cannot do this job: it answers `true` at
//! compile time for every feature the build enables, which is exactly the
//! set to check, so the check would always pass.
//!
//! The check is a best effort. Code that runs before it is compiled for v3
//! too, so an older CPU can still fault first. Where it cannot tell (no
//! readable `/proc/cpuinfo`, or no `flags` line in it, as off Linux or off
//! x86), it passes; a build without the v3 features always passes.

use std::fmt;
use std::sync::OnceLock;

/// A CPU feature this build was compiled to use and the running CPU lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingCpuFeature {
    /// The feature's `target_feature` name, e.g. `"avx2"`.
    pub feature: &'static str,
}

impl fmt::Display for MissingCpuFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "this build uses the `{}` CPU feature, which this CPU lacks; rebuild for \
             baseline x86-64 with RUSTFLAGS=\"-C target-cpu=x86-64\"",
            self.feature
        )
    }
}

impl std::error::Error for MissingCpuFeature {}

/// One x86-64-v3 feature: its `target_feature` name, its name in the
/// `flags` line of `/proc/cpuinfo`, and whether this build was compiled
/// with it.
#[derive(Clone, Copy)]
struct Feature {
    name: &'static str,
    flag: &'static str,
    compiled: bool,
}

/// The features x86-64-v3 adds over baseline x86-64 and v2, in check order.
const V3_FEATURES: [Feature; 8] = [
    Feature { name: "avx", flag: "avx", compiled: cfg!(target_feature = "avx") },
    Feature { name: "avx2", flag: "avx2", compiled: cfg!(target_feature = "avx2") },
    Feature { name: "bmi1", flag: "bmi1", compiled: cfg!(target_feature = "bmi1") },
    Feature { name: "bmi2", flag: "bmi2", compiled: cfg!(target_feature = "bmi2") },
    Feature { name: "fma", flag: "fma", compiled: cfg!(target_feature = "fma") },
    Feature { name: "f16c", flag: "f16c", compiled: cfg!(target_feature = "f16c") },
    // Linux reports LZCNT under its AMD name, "advanced bit manipulation".
    Feature { name: "lzcnt", flag: "abm", compiled: cfg!(target_feature = "lzcnt") },
    Feature { name: "movbe", flag: "movbe", compiled: cfg!(target_feature = "movbe") },
];

/// `Err` naming the first x86-64-v3 feature this build was compiled with
/// that the running CPU does not list; `Ok` otherwise, and whenever the
/// CPU's flags cannot be read. `/proc/cpuinfo` is read once per process;
/// later calls return the cached answer.
pub fn check_cpu() -> Result<(), MissingCpuFeature> {
    static ANSWER: OnceLock<Result<(), MissingCpuFeature>> = OnceLock::new();
    *ANSWER.get_or_init(|| {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        match first_missing(&V3_FEATURES, &cpuinfo) {
            Some(feature) => Err(MissingCpuFeature { feature }),
            None => Ok(()),
        }
    })
}

/// The words of the first `flags` line of a `/proc/cpuinfo` text.
fn cpu_flags(cpuinfo: &str) -> Option<Vec<&str>> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "flags").then(|| value.split_whitespace().collect())
    })
}

/// The first feature in `features` that is compiled in and missing from
/// `cpuinfo`'s flags; `None` when every one is listed, or when `cpuinfo`
/// has no `flags` line to judge by.
fn first_missing(features: &[Feature], cpuinfo: &str) -> Option<&'static str> {
    let flags = cpu_flags(cpuinfo)?;
    features
        .iter()
        .find(|f| f.compiled && !flags.contains(&f.flag))
        .map(|f| f.name)
}

/// The CPU level this build was compiled for: `"x86-64-v3"` when every v3
/// feature is compiled in, `"x86-64"` otherwise, or the architecture's name
/// off x86-64. Benchmark reports record it: kernel timings from different
/// levels are not comparable.
pub fn build_isa() -> &'static str {
    if V3_FEATURES.iter().all(|f| f.compiled) {
        "x86-64-v3"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64"
    } else {
        std::env::consts::ARCH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every v3 feature, as a build compiled with all of them sees it.
    fn all_compiled() -> [Feature; 8] {
        V3_FEATURES.map(|f| Feature { compiled: true, ..f })
    }

    const HASWELL_FLAGS: &str = "fpu sse2 ssse3 fma movbe sse4_2 avx f16c abm bmi1 avx2 bmi2";

    fn cpuinfo(flags: &str) -> String {
        format!("processor\t: 0\nmodel name\t: test\nflags\t\t: {flags}\nbugs\t\t:\n\n")
    }

    #[test]
    fn first_missing_names_the_first_feature_the_cpu_lacks() {
        let v3 = all_compiled();
        assert_eq!(first_missing(&v3, &cpuinfo(HASWELL_FLAGS)), None);
        // Sandy Bridge: AVX but nothing else of v3.
        assert_eq!(first_missing(&v3, &cpuinfo("fpu sse2 ssse3 sse4_2 avx")), Some("avx2"));
        let no_movbe = HASWELL_FLAGS.replace(" movbe", "");
        assert_eq!(first_missing(&v3, &cpuinfo(&no_movbe)), Some("movbe"));
        // LZCNT is looked up under its cpuinfo name.
        let no_abm = HASWELL_FLAGS.replace(" abm", "");
        assert_eq!(first_missing(&v3, &cpuinfo(&no_abm)), Some("lzcnt"));
    }

    #[test]
    fn features_not_compiled_in_and_unreadable_flags_pass() {
        let baseline = V3_FEATURES.map(|f| Feature { compiled: false, ..f });
        assert_eq!(first_missing(&baseline, &cpuinfo("fpu sse2")), None);
        assert_eq!(first_missing(&all_compiled(), ""), None);
        assert_eq!(first_missing(&all_compiled(), "processor\t: 0\nFeatures\t: neon\n"), None);
    }

    #[test]
    fn the_running_cpu_lists_every_feature_compiled_in() {
        // The real detector, on the machine the test binary runs on: it
        // executes this build's instructions, so it has what was compiled in.
        assert_eq!(check_cpu(), Ok(()));
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            let text = std::fs::read_to_string("/proc/cpuinfo").expect("read /proc/cpuinfo");
            let flags = cpu_flags(&text).expect("a flags line");
            for f in V3_FEATURES.iter().filter(|f| f.compiled) {
                assert!(flags.contains(&f.flag), "{} compiled in but not listed", f.name);
            }
        }
        let e = MissingCpuFeature { feature: "avx2" };
        assert!(e.to_string().contains("`avx2`"), "{e}");
    }

    #[test]
    fn build_isa_agrees_with_the_compiled_features() {
        let v3 = V3_FEATURES.iter().all(|f| f.compiled);
        assert_eq!(build_isa() == "x86-64-v3", v3, "{}", build_isa());
        if !v3 && cfg!(target_arch = "x86_64") {
            assert_eq!(build_isa(), "x86-64");
        }
    }
}
