//! Validated `HSIPC_LIVE_*` environment configuration.
//!
//! One struct owns every live-runtime environment knob. Parsing is strict
//! where it used to be forgiving: a malformed value or an unrecognized
//! `HSIPC_LIVE_*` variable (almost always a typo) is an [`EnvError`] with
//! the variable name and what was wrong — not a silent fall-back to the
//! default that makes a sweep quietly measure the wrong workload.

use crate::clock::ClockMode;
use crate::Config;
use archsim::timings::Architecture;
use std::time::Duration;

/// The variables [`LiveEnv`] understands.
const KNOWN: [&str; 11] = [
    "HSIPC_LIVE_ARCH",
    "HSIPC_LIVE_NODES",
    "HSIPC_LIVE_CONVERSATIONS",
    "HSIPC_LIVE_DURATION_MS",
    "HSIPC_LIVE_SCALE",
    "HSIPC_LIVE_SERVER_COMPUTE_US",
    "HSIPC_LIVE_BUFFERS",
    "HSIPC_LIVE_CLOCK",
    "HSIPC_LIVE_SWEEP_X_LIST",
    "HSIPC_LIVE_SWEEP_CONVERSATIONS",
    "HSIPC_LIVE_SWEEP_BUFFERS",
];

/// A rejected environment variable: which one, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The offending variable name.
    pub var: String,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.var, self.message)
    }
}

impl std::error::Error for EnvError {}

fn err(var: &str, message: impl Into<String>) -> EnvError {
    EnvError {
        var: var.to_string(),
        message: message.into(),
    }
}

/// Every live-runtime environment knob, parsed and validated. `None`
/// fields were not set; [`LiveEnv::apply`] leaves the corresponding
/// [`Config`] field at its default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiveEnv {
    /// `HSIPC_LIVE_ARCH`: which architectures `repro live` runs.
    pub archs: Option<Vec<Architecture>>,
    /// `HSIPC_LIVE_NODES`: node count (≥ 1).
    pub nodes: Option<u32>,
    /// `HSIPC_LIVE_CONVERSATIONS`: conversations per node (≥ 1).
    pub conversations: Option<u32>,
    /// `HSIPC_LIVE_DURATION_MS`: load-phase length, milliseconds.
    pub duration_ms: Option<u64>,
    /// `HSIPC_LIVE_SCALE`: activity-time scale factor (> 0).
    pub scale: Option<f64>,
    /// `HSIPC_LIVE_SERVER_COMPUTE_US`: per-request server compute X,
    /// microseconds (≥ 0; 0 is the paper's maximum-communication load).
    pub server_compute_us: Option<f64>,
    /// `HSIPC_LIVE_BUFFERS`: kernel buffers per node (≥ 1).
    pub buffers: Option<u16>,
    /// `HSIPC_LIVE_CLOCK`: `real` or `virtual`.
    pub clock: Option<ClockMode>,
    /// `HSIPC_LIVE_SWEEP_X_LIST`: comma-separated offered-load points
    /// (server compute X, microseconds) for `repro live-sweep`.
    pub sweep_x_us: Option<Vec<f64>>,
    /// `HSIPC_LIVE_SWEEP_CONVERSATIONS`: comma-separated per-node
    /// conversation counts for `repro live-sweep`.
    pub sweep_conversations: Option<Vec<u32>>,
    /// `HSIPC_LIVE_SWEEP_BUFFERS`: comma-separated kernel-buffer counts
    /// for `repro live-sweep`.
    pub sweep_buffers: Option<Vec<u16>>,
}

impl LiveEnv {
    /// Reads and validates the process environment.
    ///
    /// # Errors
    ///
    /// [`EnvError`] on the first malformed value or unknown `HSIPC_LIVE_*`
    /// variable.
    pub fn from_env() -> Result<LiveEnv, EnvError> {
        LiveEnv::from_vars(std::env::vars())
    }

    /// As [`LiveEnv::from_env`], over an explicit variable list (the
    /// testable core: no process-global state).
    ///
    /// # Errors
    ///
    /// [`EnvError`] on the first malformed value or unknown `HSIPC_LIVE_*`
    /// variable, in the order of [`KNOWN`] (unknown names last).
    pub fn from_vars(
        vars: impl IntoIterator<Item = (String, String)>,
    ) -> Result<LiveEnv, EnvError> {
        let live: Vec<(String, String)> = vars
            .into_iter()
            .filter(|(k, _)| k.starts_with("HSIPC_LIVE_"))
            .collect();
        let get = |name: &str| {
            live.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.trim().to_string())
        };

        let mut env = LiveEnv::default();
        if let Some(v) = get("HSIPC_LIVE_ARCH") {
            env.archs = Some(parse_archs(&v).map_err(|m| err("HSIPC_LIVE_ARCH", m))?);
        }
        if let Some(v) = get("HSIPC_LIVE_NODES") {
            env.nodes = Some(parse_min("HSIPC_LIVE_NODES", &v, 1)?);
        }
        if let Some(v) = get("HSIPC_LIVE_CONVERSATIONS") {
            env.conversations = Some(parse_min("HSIPC_LIVE_CONVERSATIONS", &v, 1)?);
        }
        if let Some(v) = get("HSIPC_LIVE_DURATION_MS") {
            env.duration_ms = Some(parse_min("HSIPC_LIVE_DURATION_MS", &v, 0)?);
        }
        if let Some(v) = get("HSIPC_LIVE_SCALE") {
            let scale: f64 = v
                .parse()
                .map_err(|_| err("HSIPC_LIVE_SCALE", format!("not a number: `{v}`")))?;
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(err(
                    "HSIPC_LIVE_SCALE",
                    format!("must be a positive finite number, got `{v}`"),
                ));
            }
            env.scale = Some(scale);
        }
        if let Some(v) = get("HSIPC_LIVE_SERVER_COMPUTE_US") {
            let x: f64 = v.parse().map_err(|_| {
                err(
                    "HSIPC_LIVE_SERVER_COMPUTE_US",
                    format!("not a number: `{v}`"),
                )
            })?;
            if !(x >= 0.0 && x.is_finite()) {
                return Err(err(
                    "HSIPC_LIVE_SERVER_COMPUTE_US",
                    format!("must be a non-negative finite number, got `{v}`"),
                ));
            }
            env.server_compute_us = Some(x);
        }
        if let Some(v) = get("HSIPC_LIVE_BUFFERS") {
            env.buffers = Some(parse_min("HSIPC_LIVE_BUFFERS", &v, 1)?);
        }
        if let Some(v) = get("HSIPC_LIVE_CLOCK") {
            env.clock = Some(v.parse().map_err(|m| err("HSIPC_LIVE_CLOCK", m))?);
        }
        if let Some(v) = get("HSIPC_LIVE_SWEEP_X_LIST") {
            let xs = parse_list("HSIPC_LIVE_SWEEP_X_LIST", &v, |var, item| {
                let x: f64 = item
                    .parse()
                    .map_err(|_| err(var, format!("not a number: `{item}`")))?;
                if !(x >= 0.0 && x.is_finite()) {
                    return Err(err(
                        var,
                        format!("must be a non-negative finite number, got `{item}`"),
                    ));
                }
                Ok(x)
            })?;
            env.sweep_x_us = Some(xs);
        }
        if let Some(v) = get("HSIPC_LIVE_SWEEP_CONVERSATIONS") {
            env.sweep_conversations = Some(parse_list(
                "HSIPC_LIVE_SWEEP_CONVERSATIONS",
                &v,
                |var, item| parse_min(var, item, 1),
            )?);
        }
        if let Some(v) = get("HSIPC_LIVE_SWEEP_BUFFERS") {
            env.sweep_buffers = Some(parse_list("HSIPC_LIVE_SWEEP_BUFFERS", &v, |var, item| {
                parse_min(var, item, 1)
            })?);
        }

        if let Some((k, _)) = live.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(err(
                k,
                format!("unknown variable (known: {})", KNOWN.join(", ")),
            ));
        }
        Ok(env)
    }

    /// Overwrites the set fields of `config` (the architecture list is
    /// `repro live`'s business and is not part of [`Config`]).
    pub fn apply(&self, config: &mut Config) {
        if let Some(v) = self.nodes {
            config.nodes = v;
        }
        if let Some(v) = self.conversations {
            config.conversations = v;
        }
        if let Some(v) = self.duration_ms {
            config.duration = Duration::from_millis(v);
        }
        if let Some(v) = self.scale {
            config.scale = v;
        }
        if let Some(v) = self.server_compute_us {
            config.server_compute_us = v;
        }
        if let Some(v) = self.buffers {
            config.buffers = v;
        }
        if let Some(v) = self.clock {
            config.clock = v;
        }
    }
}

/// Parses a non-empty comma-separated list, trimming items; `parse_item`
/// validates each element.
fn parse_list<T>(
    var: &str,
    v: &str,
    parse_item: impl Fn(&str, &str) -> Result<T, EnvError>,
) -> Result<Vec<T>, EnvError> {
    let items: Vec<&str> = v.split(',').map(str::trim).collect();
    if items.iter().any(|item| item.is_empty()) {
        return Err(err(
            var,
            format!("empty item in comma-separated list: `{v}`"),
        ));
    }
    items.iter().map(|item| parse_item(var, item)).collect()
}

fn parse_min<T>(var: &str, v: &str, min: T) -> Result<T, EnvError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display + Copy,
{
    let parsed: T = v
        .parse()
        .map_err(|_| err(var, format!("not a non-negative integer: `{v}`")))?;
    if parsed < min {
        return Err(err(var, format!("must be at least {min}, got `{v}`")));
    }
    Ok(parsed)
}

/// Parses an architecture selection: `I`–`IV` (or `1`–`4`), or `all`.
///
/// # Errors
///
/// A human-readable message naming the bad value.
pub fn parse_archs(s: &str) -> Result<Vec<Architecture>, String> {
    use Architecture::*;
    Ok(match s {
        "all" | "ALL" => Architecture::ALL.to_vec(),
        "I" | "1" => vec![Uniprocessor],
        "II" | "2" => vec![MessageCoprocessor],
        "III" | "3" => vec![SmartBus],
        "IV" | "4" => vec![PartitionedSmartBus],
        other => return Err(format!("unknown architecture `{other}` (I|II|III|IV|all)")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn empty_environment_sets_nothing() {
        let env = LiveEnv::from_vars(vars(&[("PATH", "/bin")])).unwrap();
        assert_eq!(env, LiveEnv::default());
        let mut config = Config::new(Architecture::Uniprocessor);
        let before = format!("{config:?}");
        env.apply(&mut config);
        assert_eq!(format!("{config:?}"), before);
    }

    #[test]
    fn well_formed_values_apply() {
        let env = LiveEnv::from_vars(vars(&[
            ("HSIPC_LIVE_NODES", "4"),
            ("HSIPC_LIVE_CONVERSATIONS", " 128 "),
            ("HSIPC_LIVE_DURATION_MS", "250"),
            ("HSIPC_LIVE_SCALE", "0.5"),
            ("HSIPC_LIVE_SERVER_COMPUTE_US", "5700"),
            ("HSIPC_LIVE_BUFFERS", "16"),
            ("HSIPC_LIVE_CLOCK", "virtual"),
            ("HSIPC_LIVE_ARCH", "II"),
        ]))
        .unwrap();
        assert_eq!(env.archs, Some(vec![Architecture::MessageCoprocessor]));
        let mut config = Config::new(Architecture::Uniprocessor);
        env.apply(&mut config);
        assert_eq!(config.nodes, 4);
        assert_eq!(config.conversations, 128);
        assert_eq!(config.duration, Duration::from_millis(250));
        assert_eq!(config.scale, 0.5);
        assert_eq!(config.server_compute_us, 5_700.0);
        assert_eq!(config.buffers, 16);
        assert_eq!(config.clock, ClockMode::Virtual);
    }

    #[test]
    fn malformed_values_error_instead_of_defaulting() {
        for (var, value, needle) in [
            ("HSIPC_LIVE_NODES", "three", "not a non-negative integer"),
            ("HSIPC_LIVE_NODES", "0", "at least 1"),
            (
                "HSIPC_LIVE_CONVERSATIONS",
                "-5",
                "not a non-negative integer",
            ),
            ("HSIPC_LIVE_SCALE", "fast", "not a number"),
            ("HSIPC_LIVE_SCALE", "0", "positive"),
            ("HSIPC_LIVE_SCALE", "-1.5", "positive"),
            ("HSIPC_LIVE_SERVER_COMPUTE_US", "slow", "not a number"),
            ("HSIPC_LIVE_SERVER_COMPUTE_US", "-10", "non-negative"),
            ("HSIPC_LIVE_SERVER_COMPUTE_US", "inf", "non-negative"),
            ("HSIPC_LIVE_BUFFERS", "70000", "not a non-negative integer"),
            ("HSIPC_LIVE_CLOCK", "wall", "unknown clock mode"),
            ("HSIPC_LIVE_ARCH", "V", "unknown architecture"),
        ] {
            let e = LiveEnv::from_vars(vars(&[(var, value)])).unwrap_err();
            assert_eq!(e.var, var, "{var}={value}");
            assert!(
                e.message.contains(needle),
                "{var}={value}: message `{}` lacks `{needle}`",
                e.message
            );
        }
    }

    #[test]
    fn sweep_lists_parse() {
        let env = LiveEnv::from_vars(vars(&[
            ("HSIPC_LIVE_SWEEP_X_LIST", "0, 570,1140, 2850"),
            ("HSIPC_LIVE_SWEEP_CONVERSATIONS", "4,64"),
            ("HSIPC_LIVE_SWEEP_BUFFERS", " 1, 32 "),
        ]))
        .unwrap();
        assert_eq!(env.sweep_x_us, Some(vec![0.0, 570.0, 1_140.0, 2_850.0]));
        assert_eq!(env.sweep_conversations, Some(vec![4, 64]));
        assert_eq!(env.sweep_buffers, Some(vec![1, 32]));
    }

    #[test]
    fn malformed_sweep_lists_error() {
        for (var, value, needle) in [
            ("HSIPC_LIVE_SWEEP_X_LIST", "570,,1140", "empty item"),
            ("HSIPC_LIVE_SWEEP_X_LIST", "570,slow", "not a number"),
            ("HSIPC_LIVE_SWEEP_X_LIST", "-1", "non-negative"),
            ("HSIPC_LIVE_SWEEP_CONVERSATIONS", "4,0", "at least 1"),
            (
                "HSIPC_LIVE_SWEEP_BUFFERS",
                "32,many",
                "not a non-negative integer",
            ),
        ] {
            let e = LiveEnv::from_vars(vars(&[(var, value)])).unwrap_err();
            assert_eq!(e.var, var, "{var}={value}");
            assert!(
                e.message.contains(needle),
                "{var}={value}: message `{}` lacks `{needle}`",
                e.message
            );
        }
    }

    #[test]
    fn zero_server_compute_is_the_max_load_point() {
        let env = LiveEnv::from_vars(vars(&[("HSIPC_LIVE_SERVER_COMPUTE_US", "0")])).unwrap();
        assert_eq!(env.server_compute_us, Some(0.0));
    }

    #[test]
    fn unknown_live_variable_is_a_typo_error() {
        let e = LiveEnv::from_vars(vars(&[("HSIPC_LIVE_CONVERSATION", "64")])).unwrap_err();
        assert_eq!(e.var, "HSIPC_LIVE_CONVERSATION");
        assert!(e.message.contains("unknown variable"), "{}", e.message);
        // A knob that no longer exists is reported the same way, not ignored.
        let e = LiveEnv::from_vars(vars(&[("HSIPC_LIVE_HANDOFF", "targeted")])).unwrap_err();
        assert_eq!(e.var, "HSIPC_LIVE_HANDOFF");
        assert!(e.message.contains("unknown variable"), "{}", e.message);
        // Non-HSIPC_LIVE variables are never inspected.
        assert!(LiveEnv::from_vars(vars(&[("HSIPC_SWEEP", "8")])).is_ok());
    }

    #[test]
    fn arch_selections_parse() {
        assert_eq!(parse_archs("all").unwrap().len(), 4);
        assert_eq!(parse_archs("3").unwrap(), vec![Architecture::SmartBus],);
        assert!(parse_archs("V").is_err());
    }
}
