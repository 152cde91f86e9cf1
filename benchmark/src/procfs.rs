//! Parsers for the `/proc/self/{status,stat}` fields the benchmark reads:
//! peak resident set, CPU time, the CPU a process last ran on and the CPUs
//! it may run on.

/// Kernel clock ticks per second (`sysconf(_SC_CLK_TCK)`). Linux has
/// reported 100 to user space on every architecture since 2.6; reading it
/// properly needs a libc call this dependency-free crate does not make.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) from `/proc/<pid>/status`, in MiB.
pub fn peak_rss_mb(status: &str) -> Option<f64> {
    let kb = status_field(status, "VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb as f64 / 1024.0)
}

/// `Cpus_allowed_list` from `/proc/<pid>/status`, expanded (`"0-2,5"` →
/// `[0, 1, 2, 5]`).
pub fn cpus_allowed(status: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in status_field(status, "Cpus_allowed_list")?.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse::<usize>().ok()?);
                if hi < lo || hi - lo > 4096 {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// What `/proc/<pid>/stat` says about CPU use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuUse {
    /// User + system time of the process, seconds.
    pub cpu_s: f64,
    /// CPU the process last ran on.
    pub processor: u32,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn cpu_use(stat: &str) -> Option<CpuUse> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state): utime, stime and processor
    // are fields 14, 15 and 39.
    let fields: Vec<&str> = after_comm.split_ascii_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some(CpuUse {
        cpu_s: (ticks(14)? + ticks(15)?) as f64 / CLK_TCK,
        processor: u32::try_from(ticks(39)?).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\thsipc-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  171008 kB\n\
                          Cpus_allowed:\t3\nCpus_allowed_list:\t0-1\n";

    #[test]
    fn reads_peak_rss() {
        assert_eq!(peak_rss_mb(STATUS), Some(167.0));
        assert_eq!(peak_rss_mb("VmPeak:\t1 kB\n"), None);
        assert_eq!(peak_rss_mb("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn expands_cpu_lists() {
        assert_eq!(cpus_allowed(STATUS), Some(vec![0, 1]));
        assert_eq!(
            cpus_allowed("Cpus_allowed_list:\t0-2,5,8-9\n"),
            Some(vec![0, 1, 2, 5, 8, 9])
        );
        assert_eq!(cpus_allowed("Cpus_allowed_list:\t3-1\n"), None);
        assert_eq!(cpus_allowed("Cpus_allowed_list:\t\n"), None);
        assert_eq!(cpus_allowed("Name:\tx\n"), None);
    }

    #[test]
    fn reads_cpu_time_past_a_hostile_command_name() {
        // Field 2 is "(a) b)": parsing must resume after the last ')'.
        let mut stat = String::from("4242 (a) b)) S");
        // Fields 4..=13 are zeros, 14 = utime, 15 = stime, then zeros up
        // to field 39 = processor.
        for field in 4..=52 {
            stat.push(' ');
            stat.push_str(match field {
                14 => "250",
                15 => "50",
                39 => "1",
                _ => "0",
            });
        }
        assert_eq!(
            cpu_use(&stat),
            Some(CpuUse {
                cpu_s: 3.0,
                processor: 1
            })
        );
        assert_eq!(cpu_use("1 (x) S 0 0"), None);
        assert_eq!(cpu_use("no parenthesis"), None);
    }

    #[test]
    fn parses_this_process() {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(peak_rss_mb(&status).expect("VmHWM present") > 0.0);
        assert!(!cpus_allowed(&status).expect("cpu list present").is_empty());
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
        assert!(cpu_use(&stat).is_some());
    }
}
