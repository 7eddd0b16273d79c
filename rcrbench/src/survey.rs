//! `survey-query`: analyst queries against a columnar cohort, with ingest
//! writes beside them.
//!
//! Ops (exact shares per 100, shuffled per block):
//! - query (95): a filter from a seeded battery of varied selectivity,
//!   compiled with `select_with`, counted and cross-tabulated by
//!   `columnar::Engine::parallel`, then a chi-square test on the table;
//! - ingest (5): an export batch parsed by `io::cohort_from_json`,
//!   converted by `ColumnarCohort::from_cohort`, then one query on it.
//!
//! Ingests are the slower class, so the p99 falls inside them and the p50
//! inside the queries. The oracle: every parallel answer equals the
//! serial engine's bitwise, the filter's row count equals the row
//! engine's on a sampled row range, and every ingest answer equals the
//! row engine's on the parsed batch.

use std::time::Instant;

use rcr_kernels::bitmap::Bitmap;
use rcr_kernels::par;
use rcr_stats::table::ContingencyTable;
use rcr_stats::tests::chi_square_independence;
use rcr_survey::canonical as q;
use rcr_survey::columnar::{ColumnData, ColumnarCohort, Engine};
use rcr_survey::io;
use rcr_survey::query::{self, Filter};
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

use crate::trace::Tracer;
use crate::util::{self, Fnv, Rng};
use crate::{Layers, Params, Run};

/// Nominal ops per second of `--seconds`.
const OPS_PER_SECOND: f64 = 400.0;
const ROWS: usize = 300_000;
/// The cohort is the same for every seed (the repository's master seed):
/// a fixed population queried by seeded batteries. Its size and layout,
/// and so set-up time and peak memory, then do not vary with the seed.
const COHORT_SEED: u64 = 0xC0FFEE;
/// Set-up repetitions before and after the timed phase.
const SETUP_REPS: (usize, usize) = (2, 2);
const QUERY: usize = 0;
const INGEST: usize = 1;
const SHARES: [usize; 2] = [95, 5];
const FILTERS: usize = 48;
const BATCHES: usize = 4;
const BATCH_ROWS: usize = 6;
/// Rows the row engine re-checks per filter.
const SAMPLE_ROWS: usize = 2_000;

/// A random leaf predicate over the questions the cross-tabulation does
/// not use, so no filter empties a margin of the table.
fn leaf(rng: &mut Rng) -> Filter {
    match rng.below(6) {
        0 => Filter::choice_is(q::Q_FIELD, q::FIELDS[rng.below(q::FIELDS.len())]),
        1 => Filter::selected(q::Q_LANGS, q::LANGUAGES[rng.below(q::LANGUAGES.len())]),
        2 => Filter::choice_is(
            q::Q_PRIMARY_LANG,
            q::LANGUAGES[rng.below(q::LANGUAGES.len())],
        ),
        3 => Filter::selected(q::Q_PRACTICES, q::PRACTICES[rng.below(q::PRACTICES.len())]),
        4 => Filter::scale_at_least(
            q::PAIN_ITEMS[rng.below(q::PAIN_ITEMS.len())],
            1 + rng.below(5) as u8,
        ),
        _ => {
            let lo = (rng.below(20)) as f64;
            Filter::number_in_range(q::Q_YEARS, lo, lo + 5.0 + rng.below(30) as f64)
        }
    }
}

/// The seeded filter battery: single predicates, conjunctions,
/// disjunctions and negations, so selectivity ranges from a few percent
/// to nearly all rows.
fn battery(rng: &mut Rng) -> Vec<Filter> {
    (0..FILTERS)
        .map(|i| match i % 4 {
            0 => leaf(rng),
            1 => leaf(rng).and(leaf(rng)),
            2 => leaf(rng).or(leaf(rng)),
            _ => leaf(rng).and(leaf(rng).not()),
        })
        .collect()
}

/// The answer of one query, reduced to a digest of its exact bits.
fn answer(
    cohort: &ColumnarCohort,
    engine: &Engine,
    threads: usize,
    filter: &Filter,
    tracer: &Tracer,
    op: u64,
) -> (u64, Bitmap) {
    let sel = tracer.time("survey.select", op, || cohort.select_with(filter, threads));
    let (count, langs, tab) = tracer.time("survey.aggregate", op, || {
        (
            engine.count(cohort, &sel),
            engine.multi_choice_counts(cohort, q::Q_LANGS, Some(&sel)),
            engine.crosstab(cohort, q::Q_STAGE, q::Q_CLUSTER_FREQ, Some(&sel)),
        )
    });
    let mut h = Fnv::default();
    h.push(count);
    match langs {
        Ok((counts, total)) => {
            h.push(total);
            counts.iter().for_each(|(_, c)| h.push(*c));
        }
        Err(e) => h.push_str(&e.to_string()),
    }
    match tab {
        Ok(tab) => {
            for &c in &tab.counts {
                h.push(c);
            }
            let test = tracer.time("stats.test", op, || {
                ContingencyTable::from_counts(
                    tab.row_options.len(),
                    tab.col_options.len(),
                    &tab.counts,
                )
                .and_then(|t| chi_square_independence(&t))
            });
            match test {
                Ok(t) => {
                    h.push(t.statistic.to_bits());
                    h.push(t.p_value.to_bits());
                }
                Err(e) => h.push_str(&e.to_string()),
            }
        }
        Err(e) => h.push_str(&e.to_string()),
    }
    (h.finish(), sel)
}

struct Batch {
    json: String,
    /// Row-engine count of the batch's filter on the parsed batch.
    expect: u64,
    filter: usize,
}

struct Input {
    filters: Vec<Filter>,
    ops: Vec<(usize, usize)>,
    batches: Vec<Batch>,
}

fn make_input(p: &Params) -> Result<Input, String> {
    let mut rng = Rng::new(p.seed);
    let filters = battery(&mut rng);
    let classes = util::class_sequence(p.ops(OPS_PER_SECOND), &SHARES, &mut rng);
    let mut batches = Vec::new();
    for b in 0..BATCHES {
        let cohort = Generator::new(p.seed ^ (0xBA7C4 + b as u64)).cohort(Wave::Y2011, BATCH_ROWS);
        let json = io::cohort_to_json(&cohort).map_err(|e| e.to_string())?;
        let filter = rng.below(FILTERS);
        let expect = query::count_filtered(&cohort, &filters[filter]) as u64;
        batches.push(Batch {
            json,
            expect,
            filter,
        });
    }
    let ops = classes
        .into_iter()
        .map(|c| match c {
            QUERY => (QUERY, rng.below(FILTERS)),
            _ => (INGEST, rng.below(BATCHES)),
        })
        .collect();
    Ok(Input {
        filters,
        ops,
        batches,
    })
}

/// Bytes held by the cohort's columns (data plus validity bitmaps).
fn column_bytes(cohort: &ColumnarCohort) -> usize {
    cohort
        .columns()
        .iter()
        .map(|c| {
            let data = match &c.data {
                ColumnData::Single(v) => v.len() * 4,
                ColumnData::Multi(v) => v.len() * 8,
                ColumnData::Likert(v) => v.len(),
                ColumnData::Numeric(v) => v.len() * 8,
                ColumnData::Text { offsets, bytes } => offsets.len() * 4 + bytes.len(),
            };
            data + c.valid.words().len() * 8
        })
        .sum()
}

pub fn run(p: &Params, tracer: &Tracer, layers: Option<&mut Layers>) -> Result<Run, String> {
    let threads = par::default_threads();
    let input = make_input(p)?;
    let mut run = Run {
        threads,
        ..Run::default()
    };
    let (before, after) = p.setup_reps(SETUP_REPS.0, SETUP_REPS.1);
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let c = tracer.time("synth.generate", 0, || {
            Generator::new(COHORT_SEED).columnar_cohort(Wave::Y2024, ROWS)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        c
    };
    let mut cohort = timed_setup(&mut run.setup_s);
    for _ in 1..before {
        drop(cohort);
        cohort = timed_setup(&mut run.setup_s);
    }
    let engine = Engine::parallel(threads);

    // Oracle, before timing: serial-engine answers for every filter, and
    // the row engine's count on a sampled row range.
    let serial = Engine::serial();
    let mut expect = Vec::with_capacity(FILTERS);
    let mut rng = Rng::new(p.seed ^ 0x5A3B1E);
    for (k, f) in input.filters.iter().enumerate() {
        let sel = cohort.select(f);
        let (digest, _) = answer(&cohort, &serial, 1, f, &Tracer::off(), 0);
        let start = rng.below(ROWS - SAMPLE_ROWS);
        let rows = cohort.rows_to_responses(start, start + SAMPLE_ROWS);
        let by_rows = rows.iter().filter(|r| f.matches(r)).count() as u64;
        if by_rows != sel.count_ones_range(start, start + SAMPLE_ROWS) {
            run.problem(format!(
                "filter {k}: columnar and row engines disagree on rows {start}.."
            ));
        }
        expect.push(digest);
    }

    let n = input.ops.len();
    let mut selectivity = Vec::new();
    let mut digest = Fnv::default();
    let cpu0 = util::process_cpu_s();
    let t0 = Instant::now();
    for (i, &(class, k)) in input.ops.iter().enumerate() {
        let op = i as u64;
        let start = Instant::now();
        let ok = if class == QUERY {
            let _g = tracer.span("survey.query", op);
            let (d, sel) = answer(&cohort, &engine, threads, &input.filters[k], tracer, op);
            if tracer.is_on() {
                selectivity.push(sel.count_ones() as f64 / ROWS as f64);
            }
            digest.push(d);
            d == expect[k]
        } else {
            let _g = tracer.span("survey.ingest_op", op);
            let batch = &input.batches[k];
            let ingested = tracer.time("survey.ingest", op, || {
                io::cohort_from_json(&batch.json).and_then(|c| ColumnarCohort::from_cohort(&c))
            });
            match ingested {
                Ok(c) => {
                    let sel = c.select_with(&input.filters[batch.filter], threads);
                    let count = engine.count(&c, &sel);
                    digest.push(count);
                    count == batch.expect
                }
                Err(_) => false,
            }
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ok {
            run.latencies_ms.push(ms);
        } else {
            run.latencies_ms.push(f64::INFINITY);
            run.failed += 1;
            run.problem(format!("op {i} (class {class}) disagrees with the oracle"));
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run.cpu_s = util::process_cpu_s() - cpu0;
    run.attempted = n as u64;
    run.digest = digest.finish();

    if let Some(layers) = layers {
        layers.put(
            "synth.generate_s",
            util::median(&tracer.durations_ms("synth.generate")) / 1e3,
            "s",
        );
        layers.put_p50_p99(
            "survey.select_ms",
            &tracer.durations_ms("survey.select"),
            "ms",
        );
        layers.put_p50_p99(
            "survey.aggregate_ms",
            &tracer.durations_ms("survey.aggregate"),
            "ms",
        );
        layers.put(
            "survey.ingest_ms.p50",
            util::median(&tracer.durations_ms("survey.ingest")),
            "ms",
        );
        layers.put(
            "survey.selectivity.p50",
            util::median(&selectivity),
            "ratio",
        );
        layers.put(
            "survey.column_mb",
            column_bytes(&cohort) as f64 / (1 << 20) as f64,
            "MiB",
        );
        let us: Vec<f64> = tracer
            .durations_ms("stats.test")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.put("stats.test_us.p50", util::median(&us), "us");
        // Serial against parallel engine over the whole battery.
        let time_battery = |e: &Engine, t: usize| {
            let t0 = Instant::now();
            for f in &input.filters {
                std::hint::black_box(answer(&cohort, e, t, f, &Tracer::off(), 0));
            }
            t0.elapsed().as_secs_f64()
        };
        let serial_s = time_battery(&serial, 1);
        let parallel_s = time_battery(&engine, threads);
        layers.put("survey.parallel_speedup", serial_s / parallel_s, "ratio");
    }
    drop(cohort);
    for _ in 0..after {
        drop(timed_setup(&mut run.setup_s));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_answers_match_serial_and_a_changed_answer_does_not() {
        let cohort = Generator::new(COHORT_SEED).columnar_cohort(Wave::Y2024, 5_000);
        let filters = battery(&mut Rng::new(9));
        let off = Tracer::off();
        let serial: Vec<u64> = filters
            .iter()
            .map(|f| answer(&cohort, &Engine::serial(), 1, f, &off, 0).0)
            .collect();
        let parallel: Vec<u64> = filters
            .iter()
            .map(|f| answer(&cohort, &Engine::parallel(2), 2, f, &off, 0).0)
            .collect();
        assert_eq!(serial, parallel);
        // One respondent fewer changes every answer that counted them.
        let smaller = Generator::new(COHORT_SEED).columnar_cohort(Wave::Y2024, 4_999);
        let all = answer(&cohort, &Engine::serial(), 1, &Filter::All, &off, 0).0;
        assert_ne!(
            all,
            answer(&smaller, &Engine::serial(), 1, &Filter::All, &off, 0).0
        );
    }
}
