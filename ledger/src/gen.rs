//! Seeded input generators. Every workload's inputs are the
//! `(source, time_ms, fields)` triples `LogReplayer::run_with` sinks take,
//! so a recorded XES log can later stand in for a generator unchanged. The
//! seed drives only this file; the program sees only the triples.

use cmi::core::value::Value;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DetectLocal,
    SessionPush,
    FedRouted,
    EnactLifecycle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DetectLocal,
        Workload::SessionPush,
        Workload::FedRouted,
        Workload::EnactLifecycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectLocal => "detect_local",
            Workload::SessionPush => "session_push",
            Workload::FedRouted => "fed_routed",
            Workload::EnactLifecycle => "enact_lifecycle",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `R_<workload>`: the fixed open-loop rate of the `paced` phase, in
    /// inputs per second — about 40 % of the `sat` figure measured at the
    /// commit that added the benchmark, on its 2-core box. A constant, never
    /// adaptive: both sides of a comparison see the same arrival process.
    pub fn paced_rate(self) -> u64 {
        match self {
            Workload::DetectLocal => 44_000,
            Workload::SessionPush => 6_500,
            Workload::FedRouted => 2_400,
            Workload::EnactLifecycle => 1_900,
        }
    }

    /// Whether the run pins the process to one CPU (see `affinity.rs`): the
    /// workloads whose stacks are many threads waking each other.
    pub fn pinned(self) -> bool {
        matches!(self, Workload::SessionPush | Workload::FedRouted)
    }
}

/// Inputs the closed loop keeps outstanding in `sat` and in the warm-up.
pub const WINDOW: u64 = 64;

/// One generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Position in the stream, from 0. Doubles as the marker notifications
    /// are matched back through (`intInfo`, or the event time `idx + 1`).
    pub idx: u64,
    pub source: &'static str,
    pub time_ms: u64,
    pub fields: Vec<(String, Value)>,
}

/// splitmix64: small, seedable, and good enough to spread instances.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `1..=n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u) + 1).min(self.cdf.len()) as u64
    }
}

/// `detect_local`: process instances the events spread over.
pub const DETECT_INSTANCES: usize = 4096;
/// `detect_local`: the four external sources and their shares in percent.
/// `s2`/`s3` feed the `seq` and `and` composites; at 10 % each the two
/// detect on ≈5 % and ≈6.7 % of all events, inside the 5–15 % target.
pub const DETECT_SOURCES: [(&str, u64); 4] = [("s0", 40), ("s1", 40), ("s2", 10), ("s3", 10)];
/// `session_push`: instances, uniform.
pub const SESSION_INSTANCES: u64 = 256;
/// `fed_routed`: instances, uniform — enough that each of three owners
/// holds about a third.
pub const FED_INSTANCES: u64 = 1024;
/// `enact_lifecycle`: users who lead task forces / who request information.
pub const ENACT_LEADERS: u64 = 8;
pub const ENACT_MEMBERS: u64 = 64;

/// The seeded stream of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    rng: Rng,
    zipf: Option<Zipf>,
    next: u64,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator {
            workload,
            rng: Rng::new(seed),
            zipf: (workload == Workload::DetectLocal).then(|| Zipf::new(DETECT_INSTANCES, 0.8)),
            next: 0,
        }
    }

    /// The next input of the stream.
    pub fn next_input(&mut self) -> Input {
        let idx = self.next;
        self.next += 1;
        let (source, fields) = match self.workload {
            Workload::DetectLocal => {
                let mut pick = self.rng.below(100);
                let mut source = DETECT_SOURCES[0].0;
                for (s, share) in DETECT_SOURCES {
                    if pick < share {
                        source = s;
                        break;
                    }
                    pick -= share;
                }
                let inst = self
                    .zipf
                    .as_ref()
                    .expect("zipf table")
                    .sample(&mut self.rng);
                (source, vec![("inst".to_owned(), Value::Id(inst))])
            }
            Workload::SessionPush | Workload::FedRouted => {
                let n = if self.workload == Workload::SessionPush {
                    SESSION_INSTANCES
                } else {
                    FED_INSTANCES
                };
                let inst = 1 + self.rng.below(n);
                (
                    "sensor",
                    vec![
                        ("inst".to_owned(), Value::Id(inst)),
                        ("intInfo".to_owned(), Value::Int(idx as i64)),
                    ],
                )
            }
            Workload::EnactLifecycle => {
                // One case: a leader, and 1–3 information requests (50/30/20)
                // each by its own member.
                let leader = self.rng.below(ENACT_LEADERS);
                let requests = match self.rng.below(10) {
                    0..=4 => 1,
                    5..=7 => 2,
                    _ => 3,
                };
                let mut fields = vec![("leader".to_owned(), Value::Int(leader as i64))];
                for _ in 0..requests {
                    let m = self.rng.below(ENACT_MEMBERS);
                    fields.push(("member".to_owned(), Value::Int(m as i64)));
                }
                ("case", fields)
            }
        };
        Input {
            idx,
            source,
            time_ms: idx + 1,
            fields,
        }
    }
}

/// FNV-1a: the offset basis, and one folding step over `bytes`.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the first `n` triples of a workload's stream: equal exactly
/// when two streams are equal.
pub fn stream_hash(workload: Workload, seed: u64, n: u64) -> u64 {
    let mut g = Generator::new(workload, seed);
    let mut h = FNV_OFFSET;
    for _ in 0..n {
        let input = g.next_input();
        fnv1a(&mut h, input.source.as_bytes());
        fnv1a(&mut h, &input.time_ms.to_le_bytes());
        for (k, v) in &input.fields {
            fnv1a(&mut h, k.as_bytes());
            match v {
                Value::Id(x) => fnv1a(&mut h, &x.to_le_bytes()),
                Value::Int(x) => fnv1a(&mut h, &x.to_le_bytes()),
                other => fnv1a(&mut h, format!("{other:?}").as_bytes()),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(
                stream_hash(w, 7, 5_000),
                stream_hash(w, 7, 5_000),
                "{}",
                w.name()
            );
            assert_ne!(
                stream_hash(w, 7, 5_000),
                stream_hash(w, 8, 5_000),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn inputs_carry_their_index_as_marker() {
        let mut g = Generator::new(Workload::FedRouted, 1);
        for i in 0..100u64 {
            let input = g.next_input();
            assert_eq!(input.idx, i);
            assert_eq!(input.time_ms, i + 1);
            assert_eq!(
                input.fields[1],
                ("intInfo".to_owned(), Value::Int(i as i64))
            );
            let Value::Id(inst) = input.fields[0].1 else {
                panic!("instance id")
            };
            assert!((1..=FED_INSTANCES).contains(&inst));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(DETECT_INSTANCES, 0.8);
        let mut rng = Rng::new(3);
        let mut top = 0;
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!((1..=DETECT_INSTANCES as u64).contains(&r));
            if r <= 41 {
                top += 1;
            }
        }
        // the top 1 % of ranks draws far more than 1 % of samples
        assert!(top > 2_000, "top-1% share {top}/20000");
    }

    #[test]
    fn detect_sources_follow_their_shares() {
        let mut g = Generator::new(Workload::DetectLocal, 11);
        let mut s2 = 0;
        for _ in 0..10_000 {
            if g.next_input().source == "s2" {
                s2 += 1;
            }
        }
        assert!((800..1_200).contains(&s2), "s2 share {s2}/10000");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
