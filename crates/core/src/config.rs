//! Engine configuration.

use vaq_types::{Result, VaqError};

/// How background probabilities behave over the stream — the single switch
/// between the paper's SVAQ and SVAQD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParameterPolicy {
    /// SVAQ: the initial background probabilities are used for the entire
    /// stream; critical values are computed once.
    Static,
    /// SVAQD: background probabilities are re-estimated with the
    /// exponential-kernel smoother (bandwidth in *clips*; converted to the
    /// right occurrence unit per predicate) and critical values recomputed.
    Dynamic {
        /// Kernel bandwidth `u`, measured in clips of history.
        bandwidth_clips: f64,
        /// When to refresh estimates and critical values.
        update: UpdatePolicy,
    },
}

/// When SVAQD refreshes its estimates (paper §3.3: "every time a new event
/// occurs, or after processing a fixed number of clips"; Algorithm 3 line 7
/// shows the positive-clip variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Refresh after every clip (default; most adaptive).
    EveryClip,
    /// Refresh only after clips whose query indicator was positive — the
    /// literal reading of Algorithm 3.
    PositiveClips,
    /// Refresh every `n` clips.
    EveryNClips(u32),
}

/// What the engine does with a clip whose model outputs stay unavailable
/// after bounded retries (detector outage, dropped frames, exhausted
/// transient errors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Fail the stream with [`vaq_types::VaqError::DetectorUnavailable`].
    /// The strict choice: never answer from partial data.
    Abort,
    /// Skip the clip entirely and emit a typed gap marker in the result;
    /// the clip contributes nothing to sequences or background estimates.
    SkipClip,
    /// Impute missing occurrence units as background (they carry no event)
    /// and test the predicate on the *observed* sub-window with an
    /// edge-corrected critical value `max(1, ⌈k·observed/total⌉)` — the
    /// scan window shrank, so the event-count bar shrinks proportionally.
    /// Clips with zero observed units still degrade to a gap marker. The
    /// default: keeps answering through partial outages without silently
    /// treating missing data as evidence of absence at full window size.
    #[default]
    ImputeBackground,
}

/// Bounded retry with exponential backoff for faulted model invocations.
///
/// Attempt `i` (zero-based) waits `base_backoff_ms · 2^i` before retrying;
/// the waits are deposited into
/// [`vaq_detect::InferenceStats::backoff_ms`] so the runtime-decomposition
/// accounting stays honest about time lost to faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before the first retry, ms; doubles per further retry.
    pub base_backoff_ms: f64,
}

impl RetryPolicy {
    /// Two retries starting at 50 ms — absorbs isolated transient errors
    /// without stalling long on a real outage.
    pub const DEFAULT: Self = Self {
        max_retries: 2,
        base_backoff_ms: 50.0,
    };

    /// No retries at all.
    pub const NONE: Self = Self {
        max_retries: 0,
        base_backoff_ms: 0.0,
    };

    /// Simulated backoff wait before retry `attempt` (zero-based), ms.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        self.base_backoff_ms * f64::from(1u32 << attempt.min(16))
    }

    /// Validates field domains.
    pub fn validate(&self) -> Result<()> {
        if !(self.base_backoff_ms.is_finite() && self.base_backoff_ms >= 0.0) {
            return Err(VaqError::InvalidConfig(format!(
                "retry backoff {} must be non-negative and finite",
                self.base_backoff_ms
            )));
        }
        if self.max_retries > 16 {
            return Err(VaqError::InvalidConfig(format!(
                "max_retries {} unreasonably large (cap 16)",
                self.max_retries
            )));
        }
        Ok(())
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Bound-driven detector-call elision (DESIGN.md §14).
///
/// When enabled, clip evaluation stops probing a scan window as soon as
/// the reachability bounds of [`vaq_scanstats::verdict`] prove every
/// completion of the window reaches the same decision the exhaustive
/// evaluator would, and the remaining detector/recognizer calls for that
/// window are *elided* — never issued, never charged. Decisions, gap
/// markers, checkpoints, and service summaries are bit-identical to the
/// exhaustive engines; only [`vaq_detect::InferenceStats`] call counts
/// (and wall-clock) change.
///
/// Elision requires [`DegradationPolicy::ImputeBackground`]: the bounds
/// quantify over fault completions using the impute rule's edge-corrected
/// bar, so the other degradation policies reject at validation.
///
/// An enabled planner probes an SVAQ window in bit-reversal (stratified)
/// order wherever `ClipPlan::build` allows it, so early-reject bounds bind
/// sooner on background clips; under SVAQD, and after a dry
/// `FALLBACK_HORIZON`, it probes in stream order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Master switch; disabled planners probe every occurrence unit.
    pub enabled: bool,
}

impl PlannerConfig {
    /// Elision disabled — the exhaustive engines of the paper.
    pub const OFF: Self = Self { enabled: false };

    /// Elision enabled with adaptive stratified probing.
    pub const ON: Self = Self { enabled: true };
}

/// Configuration of the online engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Object-detector score threshold `T_obj` (paper §2).
    pub t_obj: f64,
    /// Action-recognizer score threshold `T_act`.
    pub t_act: f64,
    /// Significance level `α` of the scan-statistics test (Eq. 5).
    pub alpha: f64,
    /// Reference horizon for the scan statistic, in clips (`N` = horizon ×
    /// OUs per clip for each predicate kind).
    pub horizon_clips: u64,
    /// Initial background probability for every object predicate
    /// (`p_obj₀`).
    pub p0_obj: f64,
    /// Initial background probability for the action predicate (`p_act₀`).
    pub p0_act: f64,
    /// SVAQ vs SVAQD.
    pub policy: ParameterPolicy,
    /// What to do when model outputs stay unavailable after retries.
    pub degradation: DegradationPolicy,
    /// Bounded retry with backoff for faulted model invocations.
    pub retry: RetryPolicy,
    /// Bound-driven call elision; off by default (exhaustive probing).
    pub planner: PlannerConfig,
}

impl OnlineConfig {
    /// SVAQ with the paper's defaults: thresholds 0.5, α = 0.05, a
    /// 200-clip horizon, and `p₀ = 10⁻⁴` (the value §5.2 fixes after the
    /// Figure-2 sensitivity sweep).
    pub fn svaq() -> Self {
        Self {
            t_obj: 0.5,
            t_act: 0.5,
            alpha: 0.05,
            horizon_clips: 200,
            p0_obj: 1e-4,
            p0_act: 1e-4,
            policy: ParameterPolicy::Static,
            degradation: DegradationPolicy::default(),
            retry: RetryPolicy::DEFAULT,
            planner: PlannerConfig::OFF,
        }
    }

    /// SVAQD with the paper's defaults and a 60-clip kernel bandwidth.
    pub fn svaqd() -> Self {
        Self {
            policy: ParameterPolicy::Dynamic {
                bandwidth_clips: 60.0,
                update: UpdatePolicy::EveryClip,
            },
            ..Self::svaq()
        }
    }

    /// Overrides both initial background probabilities.
    pub fn with_p0(mut self, p0: f64) -> Self {
        self.p0_obj = p0;
        self.p0_act = p0;
        self
    }

    /// Overrides the degradation policy.
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.degradation = policy;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the elision-planner configuration.
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner = planner;
        self
    }

    /// Validates field domains.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [("t_obj", self.t_obj), ("t_act", self.t_act)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(VaqError::InvalidConfig(format!("{name}={v} outside [0,1]")));
            }
        }
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(VaqError::InvalidConfig(format!(
                "alpha={} outside (0,1)",
                self.alpha
            )));
        }
        if self.horizon_clips < 2 {
            return Err(VaqError::InvalidConfig(
                "horizon must span at least 2 clips".into(),
            ));
        }
        for (name, v) in [("p0_obj", self.p0_obj), ("p0_act", self.p0_act)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(VaqError::InvalidConfig(format!("{name}={v} outside [0,1]")));
            }
        }
        if let ParameterPolicy::Dynamic {
            bandwidth_clips, ..
        } = self.policy
        {
            if !(bandwidth_clips.is_finite() && bandwidth_clips > 0.0) {
                return Err(VaqError::InvalidConfig(format!(
                    "kernel bandwidth {bandwidth_clips} must be positive"
                )));
            }
        }
        if self.planner.enabled && self.degradation != DegradationPolicy::ImputeBackground {
            return Err(VaqError::InvalidConfig(format!(
                "elision planner requires DegradationPolicy::ImputeBackground \
                 (its reachability bounds quantify over fault completions under \
                 the impute rule), found {:?}",
                self.degradation
            )));
        }
        self.retry.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        OnlineConfig::svaq().validate().unwrap();
        OnlineConfig::svaqd().validate().unwrap();
    }

    #[test]
    fn svaqd_differs_only_in_policy() {
        let a = OnlineConfig::svaq();
        let b = OnlineConfig::svaqd();
        assert_eq!(a.policy, ParameterPolicy::Static);
        assert!(matches!(b.policy, ParameterPolicy::Dynamic { .. }));
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.p0_obj, b.p0_obj);
    }

    #[test]
    fn with_p0_sets_both() {
        let c = OnlineConfig::svaq().with_p0(0.01);
        assert_eq!(c.p0_obj, 0.01);
        assert_eq!(c.p0_act, 0.01);
    }

    #[test]
    fn defaults_degrade_by_imputation() {
        let c = OnlineConfig::svaq();
        assert_eq!(c.degradation, DegradationPolicy::ImputeBackground);
        assert_eq!(c.retry, RetryPolicy::DEFAULT);
    }

    #[test]
    fn retry_backoff_doubles() {
        let r = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 10.0,
        };
        assert_eq!(r.backoff_ms(0), 10.0);
        assert_eq!(r.backoff_ms(1), 20.0);
        assert_eq!(r.backoff_ms(2), 40.0);
    }

    #[test]
    fn invalid_retry_rejected() {
        let bad = OnlineConfig {
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff_ms: f64::NAN,
            },
            ..OnlineConfig::svaq()
        };
        assert!(bad.validate().is_err());
        let bad = OnlineConfig {
            retry: RetryPolicy {
                max_retries: 99,
                base_backoff_ms: 1.0,
            },
            ..OnlineConfig::svaq()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn planner_defaults_off() {
        assert_eq!(OnlineConfig::svaq().planner, PlannerConfig::OFF);
        assert!(!PlannerConfig::default().enabled);
        OnlineConfig::svaq()
            .with_planner(PlannerConfig::ON)
            .validate()
            .unwrap();
    }

    #[test]
    fn planner_requires_impute_background() {
        for bad in [DegradationPolicy::Abort, DegradationPolicy::SkipClip] {
            let c = OnlineConfig::svaq()
                .with_degradation(bad)
                .with_planner(PlannerConfig::ON);
            assert!(c.validate().is_err(), "{bad:?} must reject the planner");
            // Disabled planners do not constrain degradation.
            let c = OnlineConfig::svaq().with_degradation(bad);
            c.validate().unwrap();
        }
    }

    #[test]
    fn invalid_fields_rejected() {
        assert!(OnlineConfig {
            t_obj: 1.5,
            ..OnlineConfig::svaq()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            alpha: 0.0,
            ..OnlineConfig::svaq()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            horizon_clips: 1,
            ..OnlineConfig::svaq()
        }
        .validate()
        .is_err());
        assert!(OnlineConfig {
            p0_act: -0.2,
            ..OnlineConfig::svaq()
        }
        .validate()
        .is_err());
        let bad = OnlineConfig {
            policy: ParameterPolicy::Dynamic {
                bandwidth_clips: 0.0,
                update: UpdatePolicy::EveryClip,
            },
            ..OnlineConfig::svaq()
        };
        assert!(bad.validate().is_err());
    }
}
