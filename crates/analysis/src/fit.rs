//! Log-log least-squares power-law fitting.
//!
//! Used to estimate the empirical exponent of adaptive top-switch
//! consumption vs `n` (experiment E9): fit `y = a·x^b` by linear regression
//! on `(ln x, ln y)`.

use serde::{Deserialize, Serialize};

/// Result of a power-law fit `y ≈ a · x^b`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerFit {
    /// Multiplier `a`.
    pub a: f64,
    /// Exponent `b`.
    pub b: f64,
    /// Coefficient of determination on the log-log points.
    pub r_squared: f64,
}

impl PowerFit {
    /// Fit over `(x, y)` samples; all values must be positive and at least
    /// two distinct `x` are required.
    pub fn fit(points: &[(f64, f64)]) -> Option<PowerFit> {
        if points.len() < 2 {
            return None;
        }
        if points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
            return None;
        }
        let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
        let nf = logs.len() as f64;
        let sx: f64 = logs.iter().map(|p| p.0).sum();
        let sy: f64 = logs.iter().map(|p| p.1).sum();
        let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None; // all x equal
        }
        let b = (nf * sxy - sx * sy) / denom;
        let intercept = (sy - b * sx) / nf;
        let mean_y = sy / nf;
        let ss_tot: f64 = logs.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let ss_res: f64 = logs
            .iter()
            .map(|p| (p.1 - (intercept + b * p.0)).powi(2))
            .sum();
        let r_squared = if ss_tot < 1e-12 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        Some(PowerFit {
            a: intercept.exp(),
            b,
            r_squared,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (i as f64, 3.0 * (i as f64).powf(1.7)))
            .collect();
        let fit = PowerFit::fit(&pts).unwrap();
        assert!((fit.b - 1.7).abs() < 1e-9);
        assert!((fit.a - 3.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_power_law() {
        let pts: Vec<(f64, f64)> = (2..20)
            .map(|i| {
                let x = i as f64;
                let noise = 1.0 + 0.05 * ((i % 3) as f64 - 1.0);
                (x, 2.0 * x.powf(2.0) * noise)
            })
            .collect();
        let fit = PowerFit::fit(&pts).unwrap();
        assert!((fit.b - 2.0).abs() < 0.1, "b = {}", fit.b);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(PowerFit::fit(&[]).is_none());
        assert!(PowerFit::fit(&[(1.0, 2.0)]).is_none());
        assert!(PowerFit::fit(&[(1.0, 2.0), (-1.0, 2.0)]).is_none());
        assert!(PowerFit::fit(&[(2.0, 3.0), (2.0, 4.0)]).is_none());
        assert!(PowerFit::fit(&[(1.0, 0.0), (2.0, 1.0)]).is_none());
    }

    #[test]
    fn constant_y_has_zero_exponent() {
        let pts: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, 5.0)).collect();
        let fit = PowerFit::fit(&pts).unwrap();
        assert!(fit.b.abs() < 1e-9);
        assert_eq!(fit.r_squared, 1.0);
    }
}
