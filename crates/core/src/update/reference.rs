//! The fold as a dense per-refined-bin oracle: every pair dimension spelled
//! out ([`DensePair`]), each value searched for among all of a dimension's
//! refined edges with its outer edges widened, every refined bin's `v±` / `u`
//! taken from every row non-NULL in its own column, and the 1-d bins' derived
//! metadata refreshed through a fresh χ² memo. It is the oracle
//! [`PairwiseHist::ingest`] is tested against.

use super::*;
use crate::build::BuildParams;
use crate::build2d::reference::DensePair;
use ph_gd::Preprocessor;

/// A synopsis with every pair spelled out.
#[derive(Debug, PartialEq)]
pub(crate) struct Dense {
    pub params: BuildParams,
    pub hist1d: Vec<DimBins>,
    pub pairs: Vec<DensePair>,
}

impl Dense {
    pub fn of(ph: &PairwiseHist) -> Self {
        let d = ph.n_columns();
        let pairs = (1..d)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .map(|(i, j)| DensePair::of(ph.pair(i, j)))
            .collect();
        Self { params: ph.params.clone(), hist1d: ph.hist1d.clone(), pairs }
    }
}

/// [`PairwiseHist::ingest`] over every refined bin.
pub(crate) fn ingest(dense: &mut Dense, pre: &Preprocessor, rows: &EncodedMatrix) {
    let d = dense.hist1d.len();
    assert_eq!(rows.n_columns(), d, "batch schema does not match the synopsis");
    let batch = rows.n_rows;
    if batch == 0 {
        return;
    }
    let params = &mut dense.params;
    let rho = params.rho();
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        0x1b5e_11ed ^ (params.n_total) ^ ((params.ns as u64) << 32),
    );
    let sampled: Vec<usize> = (0..batch).filter(|_| rho >= 1.0 || rng.gen::<f64>() < rho).collect();
    let value = |c: usize, r: usize| {
        let v = rows.columns[c][r];
        (Some(v) != pre.transform(c).null_code()).then_some(v)
    };

    // 1-d updates: a bin no row has reached yet takes the value as its only one.
    for (c, bins) in dense.hist1d.iter_mut().enumerate() {
        for v in sampled.iter().filter_map(|&r| value(c, r)) {
            let t = locate_extending(bins, v);
            bins.counts[t] += 1;
            if bins.counts[t] == 1 {
                (bins.vmin[t], bins.vmax[t], bins.uniq[t]) = (v, v, 1);
            } else if v < bins.vmin[t] {
                (bins.vmin[t], bins.uniq[t]) = (v, bins.uniq[t] + 1);
            } else if v > bins.vmax[t] {
                (bins.vmax[t], bins.uniq[t]) = (v, bins.uniq[t] + 1);
            }
        }
    }
    // 2-d updates: each dimension's metadata from its own column, then cells
    // and margins from the rows both columns have a value in.
    let cols = (1..d).flat_map(|j| (0..j).map(move |i| [i, j]));
    for (pair, cols) in dense.pairs.iter_mut().zip(cols) {
        let kj = pair.dims[1].counts.len();
        for &r in &sampled {
            let [ti, tj] = [0, 1].map(|side| {
                let v = value(cols[side], r)?;
                let dim = &mut pair.dims[side];
                let t = locate(&mut dim.edges, v);
                dim.meta[t].bump(v);
                Some(t)
            });
            if let (Some(ti), Some(tj)) = (ti, tj) {
                pair.counts[ti * kj + tj] += 1;
                pair.dims[0].counts[ti] += 1;
                pair.dims[1].counts[tj] += 1;
            }
        }
    }

    let mut chi2 = Chi2Cache::new(params.alpha);
    for bins in &mut dense.hist1d {
        bins.refresh(params.m_min, &mut chi2);
    }
    params.n_total += batch as u64;
    params.ns += sampled.len();
}

/// The bin of `v` among all of `edges`, widening the outer ones to reach it.
fn locate(edges: &mut [f64], v: u64) -> usize {
    let (x, k) = (v as f64, edges.len() - 1);
    if x < edges[0] {
        edges[0] = x - 0.5;
    }
    if x > edges[k] {
        edges[k] = x + 0.5;
    }
    edges[1..k].partition_point(|&e| e < x)
}
