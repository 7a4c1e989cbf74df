//! Answer checking: response parsing, an independent k-skyband
//! reference, and the id-list and version checks every read goes
//! through.

/// The parts of a `/skyline` answer the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub version: u64,
    pub cached: bool,
    pub ids: Vec<u64>,
}

/// The value after `"key":` in a flat JSON body, as raw text.
fn raw_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

pub fn u64_field(body: &str, key: &str) -> Option<u64> {
    raw_field(body, key)?.parse().ok()
}

/// `"ids":[...]` as integers, without building a JSON tree: the reads
/// are on the generator's hot path.
pub fn ids_field(body: &str) -> Option<Vec<u64>> {
    let at = body.find("\"ids\":[")? + "\"ids\":[".len();
    let rest = &body[at..];
    let end = rest.find(']')?;
    let list = &rest[..end];
    if list.trim().is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|t| t.trim().parse().ok()).collect()
}

pub fn parse_answer(body: &[u8]) -> Option<Answer> {
    let body = std::str::from_utf8(body).ok()?;
    Some(Answer {
        version: u64_field(body, "version")?,
        cached: raw_field(body, "cached")? == "true",
        ids: ids_field(body)?,
    })
}

/// An answer must list exactly the expected ids.
pub fn check_ids(expected: &[u64], got: &[u64]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let first_diff = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "wrong ids: expected {} ids, got {}; first difference at position {first_diff}",
        expected.len(),
        got.len()
    ))
}

/// An answer must be at least as new as the version the client was
/// promised (read-your-writes).
pub fn check_version(min_version: u64, got: u64) -> Result<(), String> {
    if got >= min_version {
        Ok(())
    } else {
        Err(format!(
            "stale answer: version {got} < required {min_version}"
        ))
    }
}

/// `p` dominates `q` (minimisation on every dimension).
fn dominates(p: &[f64], q: &[f64]) -> bool {
    let mut strictly = false;
    for (a, b) in p.iter().zip(q) {
        if a > b {
            return false;
        }
        if a < b {
            strictly = true;
        }
    }
    strictly
}

/// Reference k-skyband, written independently of the engines: ids of
/// the rows dominated by fewer than `k` others, ascending.
///
/// Rows are visited by (coordinate sum, lexicographic order), which
/// puts every dominator before the rows it dominates. A row with `k` or
/// more dominators always has `k` of them inside the band, so counting
/// against the band alone is exact.
pub fn reference_skyband(ids: &[u64], rows: &[Vec<f64>], dims: &[usize], k: usize) -> Vec<u64> {
    let proj: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| dims.iter().map(|&d| r[d]).collect())
        .collect();
    let sums: Vec<f64> = proj.iter().map(|r| r.iter().sum()).collect();
    let mut order: Vec<usize> = (0..proj.len()).collect();
    order.sort_by(|&a, &b| {
        sums[a].total_cmp(&sums[b]).then_with(|| {
            proj[a]
                .iter()
                .zip(&proj[b])
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    let mut band: Vec<usize> = Vec::new();
    for &p in &order {
        let mut dominators = 0;
        for &q in &band {
            if dominates(&proj[q], &proj[p]) {
                dominators += 1;
                if dominators >= k {
                    break;
                }
            }
        }
        if dominators < k {
            band.push(p);
        }
    }
    let mut out: Vec<u64> = band.into_iter().map(|i| ids[i]).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_skyline_answer() {
        let body = br#"{"dataset":"ac","algorithm":"SDI-Subset","version":7,"mask_bits":63,"k":1,"cached":true,"count":3,"elapsed_us":12,"ids":[1,4,9]}"#;
        let a = parse_answer(body).unwrap();
        assert_eq!(
            a,
            Answer {
                version: 7,
                cached: true,
                ids: vec![1, 4, 9]
            }
        );
        let empty = br#"{"version":0,"cached":false,"ids":[]}"#;
        assert!(parse_answer(empty).unwrap().ids.is_empty());
    }

    #[test]
    fn checker_rejects_a_wrong_id_list() {
        assert!(check_ids(&[1, 2, 3], &[1, 2, 3]).is_ok());
        assert!(check_ids(&[1, 2, 3], &[1, 2, 4]).is_err());
        assert!(check_ids(&[1, 2, 3], &[1, 2]).is_err());
        assert!(check_ids(&[1, 2], &[1, 2, 3]).is_err());
    }

    #[test]
    fn checker_rejects_a_stale_version() {
        assert!(check_version(5, 5).is_ok());
        assert!(check_version(5, 6).is_ok());
        assert!(check_version(5, 4).is_err());
    }

    #[test]
    fn reference_skyband_matches_brute_force() {
        let data = skyline_data::synthetic::anti_correlated(300, 4, 3);
        let rows: Vec<Vec<f64>> = data.iter().map(|(_, r)| r.to_vec()).collect();
        let ids: Vec<u64> = (0..rows.len() as u64).map(|i| i * 2 + 1).collect();
        for k in 1..=3 {
            for dims in [vec![0, 1, 2, 3], vec![1, 3]] {
                let got = reference_skyband(&ids, &rows, &dims, k);
                let mut want = Vec::new();
                for (i, p) in rows.iter().enumerate() {
                    let pp: Vec<f64> = dims.iter().map(|&d| p[d]).collect();
                    let n = rows
                        .iter()
                        .filter(|q| {
                            let qq: Vec<f64> = dims.iter().map(|&d| q[d]).collect();
                            dominates(&qq, &pp)
                        })
                        .count();
                    if n < k {
                        want.push(ids[i]);
                    }
                }
                assert_eq!(got, want, "k={k} dims={dims:?}");
            }
        }
    }
}
