//! The three workloads: seeded input tables, the request each client
//! sends next, and the reference output of every request class.
//!
//! The seed relabels values and shuffles row order; table shapes, row
//! attributes and the duplicate structure of every column stay fixed,
//! so output shapes and costs do not depend on the seed while the
//! bytes the service sees do.

use std::collections::BTreeMap;

use tabular_algebra::{parser, run, EvalLimits};
use tabular_core::{io, Database};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Readonly projections on both connections.
    PointRead,
    /// Readonly pivots and a transitive closure on both connections.
    OlapRead,
    /// Point reads on one connection, uploads and commits on the other.
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::OlapRead, Workload::WriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::OlapRead => "olap-read",
            Workload::WriteMix => "write-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `i`-th request connection `conn` (0 or 1) sends.
    pub fn class(self, conn: usize, i: usize) -> Class {
        match self {
            Workload::PointRead => Class::Point,
            // Connection 1 starts two steps in, so the two closures
            // do not run in lockstep.
            Workload::OlapRead => match (i + 2 * conn) % 4 {
                3 => Class::Tc,
                _ => Class::Pivot,
            },
            Workload::WriteMix if conn == 0 => Class::Point,
            Workload::WriteMix if i.is_multiple_of(2) => Class::UploadE,
            Workload::WriteMix => Class::Commit,
        }
    }
}

/// One kind of request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    Pivot,
    Tc,
    UploadE,
    Commit,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Point,
        Class::Pivot,
        Class::Tc,
        Class::UploadE,
        Class::Commit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Pivot => "pivot",
            Class::Tc => "tc",
            Class::UploadE => "upload",
            Class::Commit => "commit",
        }
    }

    /// Reads are the requests `p50_ms`/`p90_ms` describe.
    pub fn is_read(self) -> bool {
        matches!(self, Class::Point | Class::Pivot | Class::Tc)
    }

    /// The table the request assigns (or uploads).
    pub fn target(self) -> &'static str {
        match self {
            Class::Point => "P",
            Class::Pivot => "Cross",
            Class::Tc => "TC",
            Class::UploadE => "E",
            Class::Commit => "Version",
        }
    }

    /// The program a query class sends; `None` for the upload.
    pub fn program(self) -> Option<&'static str> {
        match self {
            Class::Point => Some(POINT),
            Class::Pivot => Some(PIVOT),
            Class::Tc => Some(TC),
            Class::Commit => Some(COMMIT),
            Class::UploadE => None,
        }
    }
}

pub const POINT: &str = "P <- PROJECT[{Region}](Sales)";

/// The paper's GROUP → CLEAN-UP → PURGE cross-tabulation, written the
/// way a user writes it: one name reassigned three times.
pub const PIVOT: &str = "Cross <- GROUP[by {Region} on {Sold}](Sales)\n\
                         Cross <- CLEANUP[by {Part} on {_}](Cross)\n\
                         Cross <- PURGE[on {Sold} by {Region}](Cross)";

/// Transitive closure with the fused hash join (the text of
/// `tabular_bench::ta_tc_fused_program`, frozen here so the benchmark
/// does not move when that helper does).
pub const TC: &str = "TC <- COPY(E)
Frontier <- COPY(E)
while Frontier do
  EStep <- COPY(E)
  RTC <- RENAME[A -> A0](TC)
  RTC <- RENAME[B -> B0](RTC)
  Matched <- FUSEDJOIN[B0 = A](RTC, EStep)
  Step <- PROJECT[{A0, B}](Matched)
  Step <- RENAME[A0 -> A](Step)
  Frontier <- DIFFERENCE(Step, TC)
  TC <- CLASSICALUNION(TC, Frontier)
end";

pub const COMMIT: &str = "Version <- PRODUCT(Seed, Seed2)";

const SALES_ROWS: usize = 120;
const CHAIN: usize = 24;
const SEED_ROWS: usize = 20;

/// SplitMix64: a small, seedable generator (no dependency needed).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` distinct labels of one fixed length: `prefix` + 5 letters.
    fn labels(&mut self, prefix: char, n: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(n);
        while out.len() < n {
            let mut s = String::from(prefix);
            for _ in 0..5 {
                s.push((b'a' + self.below(26) as u8) as char);
            }
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

/// The seeded CSV inputs, in upload order.
pub struct Inputs {
    pub sales: String,
    pub edges: String,
    pub seed: String,
    pub seed2: String,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);

        // Sales: 4 regions × 6 parts with 50 distinct Sold values, the
        // row pattern of the service's scaling bench, relabelled.
        let regions = rng.labels('g', 4);
        let parts = rng.labels('p', 6);
        let mut sold: Vec<u32> = (100..1000).collect();
        rng.shuffle(&mut sold);
        let mut rows: Vec<String> = (0..SALES_ROWS)
            .map(|i| {
                let region = &regions[i % regions.len()];
                let part = &parts[i % parts.len()];
                format!("{region},{part},{}", sold[(i * 7) % 50])
            })
            .collect();
        rng.shuffle(&mut rows);
        let sales = csv("Sales,Region,Part,Sold", &rows);

        // E: the 24-edge chain over 25 relabelled nodes, rows shuffled.
        let nodes = rng.labels('n', CHAIN + 1);
        let mut rows: Vec<String> = (0..CHAIN)
            .map(|i| format!("{},{}", nodes[i], nodes[i + 1]))
            .collect();
        rng.shuffle(&mut rows);
        let edges = csv("E,A,B", &rows);

        let seed_rows = rng.labels('s', SEED_ROWS);
        let seed2_rows = rng.labels('t', SEED_ROWS);
        Inputs {
            sales,
            edges,
            seed: csv("Seed,S", &seed_rows),
            seed2: csv("Seed2,T", &seed2_rows),
        }
    }

    /// Every table, in the order the session uploads them.
    pub fn all(&self) -> [&str; 4] {
        [&self.sales, &self.edges, &self.seed, &self.seed2]
    }
}

/// A CSV table with row attributes `r0…r{n-1}`.
fn csv(head: &str, rows: &[String]) -> String {
    let mut out = format!("{head}\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("r{i},{row}\n"));
    }
    out
}

/// What a correct response to one class holds for its target table:
/// every table of that name as `(height, width, csv)`, in database
/// order.
pub type Expected = BTreeMap<Class, Vec<(usize, usize, String)>>;

/// Compute the reference by running each program in-process on the
/// same CSVs parsed by `tabular_core::io::from_csv`.
pub fn reference(inputs: &Inputs) -> Result<Expected, String> {
    let mut db = Database::new();
    for src in inputs.all() {
        db.insert(io::from_csv(src).map_err(|e| format!("input CSV: {e}"))?);
    }
    let mut expected = Expected::new();
    for class in Class::ALL {
        let out = match class.program() {
            Some(src) => {
                let program = parser::parse(src).map_err(|e| format!("{}: {e}", class.name()))?;
                run(&program, &db, &EvalLimits::default())
                    .map_err(|e| format!("{}: {e}", class.name()))?
            }
            None => db.snapshot(),
        };
        let tables = out
            .tables()
            .iter()
            .filter(|t| t.name().text() == Some(class.target()))
            .map(|t| (t.height(), t.width(), io::to_csv(t)))
            .collect();
        expected.insert(class, tables);
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_values_not_shapes() {
        let a = reference(&Inputs::generate(1)).unwrap();
        let b = reference(&Inputs::generate(2)).unwrap();
        for class in Class::ALL {
            let shape = |e: &Expected| -> Vec<(usize, usize)> {
                e[&class].iter().map(|(h, w, _)| (*h, *w)).collect()
            };
            assert!(!shape(&a).is_empty(), "{} has a target", class.name());
            assert_eq!(shape(&a), shape(&b), "{} shape", class.name());
        }
        assert_ne!(Inputs::generate(1).sales, Inputs::generate(2).sales);
        assert_eq!(Inputs::generate(3).sales, Inputs::generate(3).sales);
    }

    #[test]
    fn olap_connections_are_offset() {
        let w = Workload::OlapRead;
        let c0: Vec<Class> = (0..4).map(|i| w.class(0, i)).collect();
        let c1: Vec<Class> = (0..4).map(|i| w.class(1, i)).collect();
        assert_eq!(c0.iter().filter(|c| **c == Class::Tc).count(), 1);
        assert_ne!(c0, c1);
    }
}
