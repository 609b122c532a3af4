//! Seeded inputs: the databases, the SQL query streams and the update
//! batches of each workload. The program under test only ever sees what
//! these functions produce — CSV files, SQL text and `UpdateBatch`es.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use prmsel::{DeltaRow, UpdateBatch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use reldb::{Database, Value};

/// The four workloads. Each stresses a different layer; see the README
/// for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    RangeScan,
    JoinOptimizer,
    PointMaintain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointHot,
        Workload::RangeScan,
        Workload::JoinOptimizer,
        Workload::PointMaintain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point-hot",
            Workload::RangeScan => "range-scan",
            Workload::JoinOptimizer => "join-optimizer",
            Workload::PointMaintain => "point-maintain",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop reader threads. The benchmark targets a two-core
    /// machine: no workload keeps more than two threads busy
    /// (point-maintain's second busy thread is the maintenance loop).
    pub fn clients(self) -> usize {
        match self {
            Workload::PointHot => 2,
            _ => 1,
        }
    }

    /// The table whose rows the sliding-window update batches replace.
    pub fn slid_table(self) -> &'static str {
        match self {
            Workload::JoinOptimizer => "contact",
            _ => "census",
        }
    }
}

/// Sizes and durations of one run. [`Scale::full`] is the benchmark;
/// tests shrink every knob.
#[derive(Debug, Clone)]
pub struct Scale {
    pub census_rows: usize,
    /// `(strains, patients, contacts)`.
    pub tb: (usize, usize, usize),
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Windows the measured phase is cut into; throughput and latency
    /// percentiles come from the fastest quarter of them. One writer
    /// period, so each of point-maintain's windows holds one swap.
    pub window: Duration,
    /// SQL strings per client ring.
    pub ring: usize,
    /// Queries in the accuracy sample.
    pub accuracy: usize,
    /// Rows deleted and rows inserted per update batch.
    pub batch_rows: usize,
    /// point-maintain's open-loop writer period.
    pub writer_period: Duration,
    /// Batches and period of the refresh probe the other workloads run
    /// after their read phase. The batches are spread over seconds to
    /// average over a shared host's slow spells: run back to back, the
    /// probe's p90 varied about twice as much between runs.
    pub probe_batches: usize,
    pub probe_period: Duration,
}

impl Scale {
    pub fn full(seconds: u64) -> Scale {
        Scale {
            census_rows: 50_000,
            tb: (
                workloads::tb::N_STRAINS,
                workloads::tb::N_PATIENTS,
                workloads::tb::N_CONTACTS,
            ),
            setups: 3,
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(seconds),
            window: Duration::from_millis(200),
            ring: 65_536,
            accuracy: 1000,
            batch_rows: 500,
            writer_period: Duration::from_millis(200),
            probe_batches: 100,
            probe_period: Duration::from_millis(30),
        }
    }

    /// Batches the workload submits: point-maintain's writer runs for the
    /// whole measured phase, the others run the fixed refresh probe.
    pub fn batches(&self, w: Workload) -> usize {
        match w {
            Workload::PointMaintain => {
                (self.measure.as_nanos() / self.writer_period.as_nanos()).max(1) as usize
            }
            _ => self.probe_batches,
        }
    }
}

/// Per-purpose RNG streams derived from the run seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Stream id of client `k`'s ring.
pub fn stream_client(k: usize) -> u64 {
    0xC11E_0000 + k as u64
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Domain size of a census attribute (values are `0..card`).
pub fn census_card(attr: &str) -> usize {
    workloads::census::ATTRS
        .iter()
        .find(|&&(n, _)| n == attr)
        .map(|&(_, c)| c)
        .expect("known census attribute")
}

/// point-hot's equality templates. Each has at most 756 distinct constant
/// tuples (the product of its domain sizes), so every template's whole
/// signature space fits the 4096-entry `P(E)` memo of its plan.
pub const POINT_TEMPLATES: [&[&str]; 8] = [
    &["age", "income"],
    &["education", "income"],
    &["hours_per_week", "income"],
    &["education", "worker_class", "employ_type"],
    &["age", "marital_status", "sex"],
    &["industry", "worker_class"],
    &["marital_status", "children", "child_support"],
    &["race", "sex", "earner"],
];

/// range-scan's one template: inclusive ranges on three attributes, about
/// 12M distinct signatures against a 4096-entry memo.
pub const RANGE_ATTRS: [&str; 3] = ["age", "income", "hours_per_week"];

/// Tuple variables of the TB chain: alias, table, predicable attributes.
type TbVar = (&'static str, &'static str, &'static [&'static str]);
const CONTACT: TbVar = ("c", "contact", &["contype", "age", "infected", "household"]);
const PATIENT: TbVar = ("p", "patient", &["age", "gender", "usborn", "hiv", "homeless"]);
const STRAIN: TbVar = ("s", "strain", &["unique", "drug_resist", "lineage"]);

/// The 2–3-table chains of contact⋈patient⋈strain: variables and joins.
const CHAINS: [(&[TbVar], &str); 3] = [
    (&[CONTACT, PATIENT, STRAIN], "c.patient = p AND p.strain = s"),
    (&[CONTACT, PATIENT], "c.patient = p"),
    (&[PATIENT, STRAIN], "p.strain = s"),
];

/// join-optimizer's template count: Zipf(1.0) over these spreads the
/// optimizer's sub-query templates well past the 64-entry plan cache.
pub const JOIN_TEMPLATES: usize = 512;

/// Fixed (seed-independent) order of the join templates, so every seed
/// draws from the same popularity ranking.
const JOIN_ORDER_SEED: u64 = 0x7E3A_1A7E;

#[derive(Debug, Clone)]
pub struct JoinTemplate {
    chain: usize,
    /// `(alias, attribute, index into the domain list)` per predicate.
    preds: Vec<(&'static str, &'static str, usize)>,
}

/// A workload's query stream.
pub enum QueryGen {
    Point { templates: Zipf, consts: Vec<Vec<Zipf>> },
    Range,
    Join { templates: Vec<JoinTemplate>, rank: Zipf, domains: Vec<Vec<Value>> },
}

fn lit(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
    }
}

impl QueryGen {
    /// The stream of `w`; `data` supplies the TB domains.
    pub fn new(w: Workload, data: &Database) -> reldb::Result<QueryGen> {
        Ok(match w {
            Workload::PointHot | Workload::PointMaintain => QueryGen::Point {
                templates: Zipf::new(POINT_TEMPLATES.len(), 1.0),
                consts: POINT_TEMPLATES
                    .iter()
                    .map(|t| t.iter().map(|a| Zipf::new(census_card(a), 1.0)).collect())
                    .collect(),
            },
            Workload::RangeScan => QueryGen::Range,
            Workload::JoinOptimizer => {
                let mut domains = Vec::new();
                let mut index: HashMap<(&str, &str), usize> = HashMap::new();
                let mut all = Vec::new();
                for (chain, (vars, _)) in CHAINS.iter().enumerate() {
                    let attrs: Vec<(&'static str, &'static str, &'static str)> = vars
                        .iter()
                        .flat_map(|&(alias, table, attrs)| {
                            attrs.iter().map(move |&a| (alias, table, a))
                        })
                        .collect();
                    for subset in subsets_up_to(attrs.len(), 3) {
                        let mut preds = Vec::with_capacity(subset.len());
                        for i in subset {
                            let (alias, table, attr) = attrs[i];
                            let d = match index.get(&(table, attr)) {
                                Some(&d) => d,
                                None => {
                                    let values = data
                                        .table(table)?
                                        .domain(attr)?
                                        .values()
                                        .to_vec();
                                    domains.push(values);
                                    index.insert((table, attr), domains.len() - 1);
                                    domains.len() - 1
                                }
                            };
                            preds.push((alias, attr, d));
                        }
                        all.push(JoinTemplate { chain, preds });
                    }
                }
                all.shuffle(&mut StdRng::seed_from_u64(JOIN_ORDER_SEED));
                all.truncate(JOIN_TEMPLATES);
                QueryGen::Join {
                    rank: Zipf::new(all.len(), 1.0),
                    templates: all,
                    domains,
                }
            }
        })
    }

    /// One query of the stream.
    pub fn sql(&self, rng: &mut StdRng) -> String {
        match self {
            QueryGen::Point { templates, consts } => {
                let t = templates.sample(rng);
                let conds: Vec<String> = POINT_TEMPLATES[t]
                    .iter()
                    .zip(&consts[t])
                    .map(|(a, z)| format!("census.{a} = {}", z.sample(rng)))
                    .collect();
                format!("SELECT COUNT(*) FROM census WHERE {}", conds.join(" AND "))
            }
            QueryGen::Range => {
                let conds: Vec<String> = RANGE_ATTRS
                    .iter()
                    .map(|a| {
                        let card = census_card(a) as i64;
                        let (x, y) = (rng.gen_range(0..card), rng.gen_range(0..card));
                        format!("census.{a} BETWEEN {} AND {}", x.min(y), x.max(y))
                    })
                    .collect();
                format!("SELECT COUNT(*) FROM census WHERE {}", conds.join(" AND "))
            }
            QueryGen::Join { templates, rank, domains } => {
                let t = &templates[rank.sample(rng)];
                join_sql(t, |d| {
                    let values = &domains[d];
                    values[rng.gen_range(0..values.len())].clone()
                })
            }
        }
    }

    /// One query per template with fixed constants — what the set-up
    /// precompiles from.
    pub fn template_sqls(&self) -> Vec<String> {
        match self {
            QueryGen::Point { .. } => POINT_TEMPLATES
                .iter()
                .map(|t| {
                    let conds: Vec<String> =
                        t.iter().map(|a| format!("census.{a} = 0")).collect();
                    format!("SELECT COUNT(*) FROM census WHERE {}", conds.join(" AND "))
                })
                .collect(),
            QueryGen::Range => {
                let conds: Vec<String> = RANGE_ATTRS
                    .iter()
                    .map(|a| format!("census.{a} BETWEEN 0 AND 0"))
                    .collect();
                vec![format!("SELECT COUNT(*) FROM census WHERE {}", conds.join(" AND "))]
            }
            QueryGen::Join { templates, domains, .. } => {
                templates.iter().map(|t| join_sql(t, |d| domains[d][0].clone())).collect()
            }
        }
    }

    /// `n` queries from the stream seeded by `(seed, stream)`.
    pub fn batch(&self, seed: u64, stream: u64, n: usize) -> Vec<String> {
        let mut rng = rng(seed, stream);
        (0..n).map(|_| self.sql(&mut rng)).collect()
    }

    /// The accuracy sample: the same `n` queries whatever the run's seed,
    /// so the q-error metrics of two runs compare exactly.
    pub fn accuracy_sample(&self, n: usize) -> Vec<String> {
        self.batch(ACCURACY_SEED, 0, n)
    }
}

fn join_sql(t: &JoinTemplate, mut value: impl FnMut(usize) -> Value) -> String {
    let (vars, joins) = CHAINS[t.chain];
    let from: Vec<String> =
        vars.iter().map(|(alias, table, _)| format!("{table} {alias}")).collect();
    let mut conds = vec![joins.to_owned()];
    for &(alias, attr, d) in &t.preds {
        conds.push(format!("{alias}.{attr} = {}", lit(&value(d))));
    }
    format!("SELECT COUNT(*) FROM {} WHERE {}", from.join(", "), conds.join(" AND "))
}

/// Every subset of `0..n` with 1..=`k` elements, in lexicographic order.
fn subsets_up_to(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn rec(
        n: usize,
        k: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == k {
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(n, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, k, 0, &mut Vec::new(), &mut out);
    out
}

/// Generator seeds of the fixed databases (the draws the `estimate` bench
/// uses). The database is not drawn from `--seed`: the learned structure
/// changes with the draw, and with it the cost of every layer, which
/// would swamp the run-to-run spread the bounds are judged against. The
/// update stream and the accuracy sample are fixed for the same reason,
/// which leaves `--seed` the traffic: the SQL rings the clients replay.
const CENSUS_SEED: u64 = 1;
const TB_SEED: u64 = 7;
const ACCURACY_SEED: u64 = 0xACC;

/// The workload's database.
pub fn data(w: Workload, scale: &Scale) -> Database {
    match w {
        Workload::JoinOptimizer => {
            let (s, p, c) = scale.tb;
            workloads::tb::tb_database_sized(s, p, c, TB_SEED)
        }
        _ => workloads::census::census_database(scale.census_rows, CENSUS_SEED),
    }
}

/// A second draw of the workload's data, at the data seed + 1, holding
/// `rows` rows of the slid table: the source of inserted rows.
pub fn second_draw(w: Workload, scale: &Scale, rows: usize) -> Database {
    match w {
        Workload::JoinOptimizer => {
            let (s, p, _) = scale.tb;
            workloads::tb::tb_database_sized(s, p, rows, TB_SEED + 1)
        }
        _ => workloads::census::census_database(rows, CENSUS_SEED + 1),
    }
}

/// Sliding-window update batches over one table, plus the live rows
/// after the last batch.
pub struct Batches {
    pub batches: Vec<UpdateBatch>,
    pub live: VecDeque<DeltaRow>,
}

/// `n` batches that each delete the `rows` oldest live rows of `table`
/// and insert the next `rows` rows of `fresh`. Rows are encoded in the
/// coding of `authority`, the database the served model was learned
/// from; `fresh` rows holding a value that coding lacks are skipped.
pub fn sliding_batches(
    authority: &Database,
    table: &str,
    fresh: &Database,
    n: usize,
    rows: usize,
) -> reldb::Result<Batches> {
    let t = authority.table_index(table)?;
    let mut live: VecDeque<DeltaRow> = encode_rows(authority, table, authority)?.into();
    let mut incoming = encode_rows(authority, table, fresh)?.into_iter();
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        let mut batch = UpdateBatch::new(authority.tables().len());
        let delta = &mut batch.tables[t];
        for _ in 0..rows.min(live.len()) {
            delta.deletes.push(live.pop_front().expect("live row"));
        }
        for row in incoming.by_ref().take(rows) {
            delta.inserts.push(row.clone());
            live.push_back(row);
        }
        batches.push(batch);
    }
    Ok(Batches { batches, live })
}

/// The database holding exactly the `live` rows of a single-table,
/// keyless `table` (census): exact truth after the writer's batches.
pub fn live_database(
    authority: &Database,
    table: &str,
    live: &VecDeque<DeltaRow>,
) -> reldb::Result<Database> {
    let t = authority.table(table)?;
    let attrs = t.schema().value_attrs();
    let domains = attrs.iter().map(|a| t.domain(a)).collect::<reldb::Result<Vec<_>>>()?;
    let mut builder = reldb::TableBuilder::new(table);
    for a in &attrs {
        builder = builder.col(*a);
    }
    for row in live {
        let values: Vec<Value> =
            row.attrs.iter().zip(&domains).map(|(&c, d)| d.value(c).clone()).collect();
        builder.push_row(values)?;
    }
    reldb::DatabaseBuilder::new().add_table(builder.finish()?).finish()
}

/// Encodes every row of `source.table` as a [`DeltaRow`] in the coding
/// of `authority`: own value codes plus, per foreign key, the value codes
/// of the referenced `authority` row (looked up by key).
fn encode_rows(
    authority: &Database,
    table: &str,
    source: &Database,
) -> reldb::Result<Vec<DeltaRow>> {
    let auth = authority.table(table)?;
    let src = source.table(table)?;
    let attrs = auth.schema().value_attrs();
    let domains =
        attrs.iter().map(|a| auth.domain(a)).collect::<reldb::Result<Vec<_>>>()?;
    let src_cols =
        attrs.iter().map(|a| src.codes(a)).collect::<reldb::Result<Vec<_>>>()?;
    let src_domains =
        attrs.iter().map(|a| src.domain(a)).collect::<reldb::Result<Vec<_>>>()?;
    // Per fk: source key per row, authority row per key, target codes.
    let mut fks = Vec::new();
    for fk in auth.schema().foreign_keys() {
        let target = authority.table(&fk.target)?;
        let keys = target.key_values().unwrap_or(&[]);
        let row_of: HashMap<i64, usize> =
            keys.iter().enumerate().map(|(r, &k)| (k, r)).collect();
        let cols = target
            .schema()
            .value_attrs()
            .iter()
            .map(|a| target.codes(a))
            .collect::<reldb::Result<Vec<_>>>()?;
        fks.push((src.fk_values(&fk.attr)?, row_of, cols));
    }
    let mut out = Vec::with_capacity(src.n_rows());
    'rows: for row in 0..src.n_rows() {
        let mut codes = Vec::with_capacity(attrs.len());
        for ((dom, src_dom), col) in domains.iter().zip(&src_domains).zip(&src_cols) {
            match dom.code(src_dom.value(col[row])) {
                Some(c) => codes.push(c),
                None => continue 'rows,
            }
        }
        let mut foreign = Vec::with_capacity(fks.len());
        for (src_keys, row_of, cols) in &fks {
            let Some(&r) = row_of.get(&src_keys[row]) else { continue 'rows };
            foreign.push(cols.iter().map(|c| c[r]).collect());
        }
        out.push(DeltaRow { attrs: codes, foreign });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let data = data(Workload::JoinOptimizer, &crate::run::tests::tiny_scale());
        for w in Workload::ALL {
            let g = QueryGen::new(w, &data).unwrap();
            assert_eq!(g.batch(7, 1, 50), g.batch(7, 1, 50), "{}", w.name());
            assert_ne!(g.batch(7, 1, 50), g.batch(8, 1, 50), "{}", w.name());
            for sql in g.batch(7, 1, 50).iter().chain(&g.template_sqls()) {
                reldb::parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
        }
    }

    #[test]
    fn zipf_samples_stay_in_range_and_favour_low_ranks() {
        let z = Zipf::new(42, 1.0);
        let mut r = rng(1, 2);
        let mut hist = [0usize; 42];
        for _ in 0..20_000 {
            hist[z.sample(&mut r)] += 1;
        }
        assert!(hist[0] > hist[1] && hist[1] > hist[10] && hist[10] > hist[41]);
        let single = Zipf::new(1, 1.0);
        assert!((0..100).all(|_| single.sample(&mut r) == 0));
    }

    #[test]
    fn cache_pressure_claims_hold() {
        // point-hot: each template's signature space fits its plan's memo.
        for t in POINT_TEMPLATES {
            let sigs: usize = t.iter().map(|a| census_card(a)).product();
            assert!(sigs <= prmsel::plan::DEFAULT_REDUCE_MEMO_CAPACITY, "{t:?}: {sigs}");
        }
        // range-scan: the signature space dwarfs the memo.
        let range: usize = RANGE_ATTRS
            .iter()
            .map(|a| census_card(a) * (census_card(a) + 1) / 2)
            .product();
        assert!(range > 1_000_000, "{range}");
        // join-optimizer: more templates than the plan cache holds.
        let data = data(Workload::JoinOptimizer, &crate::run::tests::tiny_scale());
        let QueryGen::Join { templates, .. } =
            QueryGen::new(Workload::JoinOptimizer, &data).unwrap()
        else {
            unreachable!()
        };
        assert!(templates.len() > prmsel::plan::DEFAULT_PLAN_CACHE_CAPACITY);
        assert_eq!(templates.len(), JOIN_TEMPLATES);
    }

    #[test]
    fn sliding_batches_keep_the_live_set_size() {
        let scale = crate::run::tests::tiny_scale();
        let base = data(Workload::PointHot, &scale);
        let fresh = second_draw(Workload::PointHot, &scale, 200);
        let n_live = base.table("census").unwrap().n_rows();
        let b = sliding_batches(&base, "census", &fresh, 3, 50).unwrap();
        assert_eq!(b.batches.len(), 3);
        assert!(b.batches.iter().all(|x| x.rows() == 100));
        assert_eq!(b.live.len(), n_live);
    }
}
