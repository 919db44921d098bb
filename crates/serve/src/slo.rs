//! Service-level-objective classes for cluster serving.
//!
//! Every request entering the cluster front door carries an [`SloClass`]
//! that decides two things: its *deadline* (how stale a response may be
//! before it is worthless) and its *priority* (who is shed first when
//! the fleet cannot keep up). The policy is strict: under overload the
//! admission controller sheds `Batch` before `Standard` before
//! `Interactive`, so paying the overload cost falls on the traffic that
//! can tolerate it — the regime the Alibaba-PAI characterization
//! describes for multi-tenant inference fleets.

use fathom_tensor::Rng;

/// A request's service class, in descending urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// User-facing traffic: tight deadline, never shed while anything
    /// lower-priority can be shed instead.
    Interactive,
    /// Default traffic: looser deadline, sheds before `Interactive`.
    Standard,
    /// Offline/bulk traffic: typically no deadline, first to shed.
    Batch,
}

impl SloClass {
    /// Every class, most urgent first (also the report ordering).
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];

    /// Number of classes.
    pub const COUNT: usize = 3;

    /// Display name, lowercase.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// Dense index into per-class arrays (`ALL[idx] == self`).
    pub fn idx(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// Scheduling priority: larger serves (and survives) first.
    pub fn priority(self) -> u8 {
        match self {
            SloClass::Interactive => 2,
            SloClass::Standard => 1,
            SloClass::Batch => 0,
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-class deadlines, indexed by [`SloClass::idx`]. `None` means the
/// class never times out (the usual choice for `Batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Deadline per class in virtual nanoseconds, `ALL` order.
    pub deadline_nanos: [Option<u64>; SloClass::COUNT],
}

impl SloPolicy {
    /// 50 ms interactive, 250 ms standard, no batch deadline.
    pub fn default_serving() -> Self {
        SloPolicy { deadline_nanos: [Some(50_000_000), Some(250_000_000), None] }
    }

    /// The deadline for one class.
    pub fn deadline(&self, class: SloClass) -> Option<u64> {
        self.deadline_nanos[class.idx()]
    }
}

/// A traffic mix over the three classes, as relative weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloMix {
    /// Relative weight per class, `ALL` order. Must sum to a positive
    /// value; they need not be normalized.
    pub weights: [f64; SloClass::COUNT],
}

impl SloMix {
    /// Half interactive, 30% standard, 20% batch — the mix a
    /// `ClusterConfig` starts with.
    pub fn default_mix() -> Self {
        SloMix { weights: [0.5, 0.3, 0.2] }
    }

    /// A single-class mix (weight 1 on `class`).
    pub fn pure(class: SloClass) -> Self {
        let mut weights = [0.0; SloClass::COUNT];
        weights[class.idx()] = 1.0;
        SloMix { weights }
    }

    /// Parses `"50,30,20"` (interactive,standard,batch weights).
    ///
    /// # Errors
    ///
    /// Returns a message when the spec is not three non-negative numbers
    /// with a positive sum.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != SloClass::COUNT {
            return Err(format!(
                "SLO mix needs {} comma-separated weights (interactive,standard,batch), got '{spec}'",
                SloClass::COUNT
            ));
        }
        let mut weights = [0.0; SloClass::COUNT];
        for (w, part) in weights.iter_mut().zip(&parts) {
            *w = part
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("SLO mix weight '{part}' is not a number"))?;
            if !w.is_finite() || *w < 0.0 {
                return Err(format!("SLO mix weight '{part}' must be finite and non-negative"));
            }
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err("SLO mix weights must sum to a positive value".into());
        }
        Ok(SloMix { weights })
    }

    /// Draws one class from the mix using the shared request RNG, so a
    /// seeded run reproduces the identical class sequence.
    pub fn draw(&self, rng: &mut Rng) -> SloClass {
        let total: f64 = self.weights.iter().sum();
        let mut u = rng.uniform() as f64 * total;
        for class in SloClass::ALL {
            u -= self.weights[class.idx()];
            if u < 0.0 {
                return class;
            }
        }
        // Rounding at the top edge lands on the last class.
        SloClass::Batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_order_by_priority() {
        assert!(SloClass::Interactive.priority() > SloClass::Standard.priority());
        assert!(SloClass::Standard.priority() > SloClass::Batch.priority());
        for (i, class) in SloClass::ALL.iter().enumerate() {
            assert_eq!(class.idx(), i);
        }
    }

    #[test]
    fn mix_parses_and_rejects() {
        let m = SloMix::parse("50,30,20").expect("parses");
        assert_eq!(m.weights, [50.0, 30.0, 20.0]);
        assert!(SloMix::parse("1,2").is_err());
        assert!(SloMix::parse("a,b,c").is_err());
        assert!(SloMix::parse("-1,2,3").is_err());
        assert!(SloMix::parse("0,0,0").is_err());
    }

    #[test]
    fn draw_is_seed_deterministic_and_respects_weights() {
        let mix = SloMix::parse("80,20,0").expect("parses");
        let draw_n = |seed: u64| {
            let mut rng = Rng::seeded(seed);
            let mut counts = [0u32; 3];
            for _ in 0..1000 {
                counts[mix.draw(&mut rng).idx()] += 1;
            }
            counts
        };
        let a = draw_n(7);
        assert_eq!(a, draw_n(7), "same seed, same class sequence");
        assert_eq!(a[2], 0, "zero-weight class never drawn");
        assert!(a[0] > a[1], "80/20 mix favors interactive: {a:?}");
    }

    #[test]
    fn pure_mix_draws_only_its_class() {
        let mix = SloMix::pure(SloClass::Batch);
        let mut rng = Rng::seeded(3);
        for _ in 0..100 {
            assert_eq!(mix.draw(&mut rng), SloClass::Batch);
        }
    }

    #[test]
    fn default_policy_deadlines() {
        let p = SloPolicy::default_serving();
        assert_eq!(p.deadline(SloClass::Interactive), Some(50_000_000));
        assert_eq!(p.deadline(SloClass::Batch), None);
    }
}
