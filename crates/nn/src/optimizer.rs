//! The gradient-descent optimiser: Adam, the paper's.

use evfad_tensor::Matrix;

/// Adam optimiser (Kingma & Ba, 2015) with bias-corrected first/second
/// moments — the paper's optimiser with `LEARNING_RATE = 0.001`.
///
/// Parameters are addressed positionally: the caller passes the same ordered
/// `(param, grad)` pairs on every step (as
/// [`Layer::params_and_grads_mut`](crate::Layer::params_and_grads_mut)
/// yields them, layer by layer); moment state is kept per position and
/// sized on the first step.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Step size (paper: `0.001`).
    pub learning_rate: f64,
    /// First-moment decay (default `0.9`).
    pub beta1: f64,
    /// Second-moment decay (default `0.999`).
    pub beta2: f64,
    /// Numerical-stability constant (default `1e-8`).
    pub epsilon: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimiser with Keras-default betas and epsilon.
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam update to every `(param, grad)` pair, in order.
    ///
    /// # Panics
    ///
    /// Panics if the number of pairs changes between calls.
    pub fn step<'a>(
        &mut self,
        params_and_grads: impl IntoIterator<Item = (&'a mut Matrix, &'a mut Matrix)>,
    ) {
        const CHANGED: &str = "Adam was initialised for a different parameter set";
        let first = self.m.is_empty();
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let mut pairs = 0;
        for (idx, (w, g)) in params_and_grads.into_iter().enumerate() {
            if first {
                self.m.push(Matrix::zeros(w.rows(), w.cols()));
                self.v.push(Matrix::zeros(w.rows(), w.cols()));
            }
            assert!(idx < self.m.len(), "{CHANGED}");
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            for ((wv, gv), (mv, vv)) in w
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let m_hat = *mv / b1t;
                let v_hat = *vv / b2t;
                *wv -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            pairs = idx + 1;
        }
        assert_eq!(pairs, self.m.len(), "{CHANGED}");
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(0.001)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(opt: &mut Adam, start: f64, iters: usize) -> f64 {
        // Minimise f(w) = (w - 3)^2; grad = 2(w - 3).
        let mut w = Matrix::filled(1, 1, start);
        for _ in 0..iters {
            let mut g = Matrix::filled(1, 1, 2.0 * (w[(0, 0)] - 3.0));
            opt.step([(&mut w, &mut g)]);
        }
        w[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_descent(&mut opt, 0.0, 2000);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, the very first Adam step is ~lr in magnitude.
        let mut opt = Adam::new(0.001);
        let mut w = Matrix::zeros(1, 1);
        let mut g = Matrix::filled(1, 1, 123.0);
        opt.step([(&mut w, &mut g)]);
        assert!((w[(0, 0)].abs() - 0.001).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "different parameter set")]
    fn adam_rejects_changed_param_count() {
        let mut opt = Adam::new(0.01);
        let mut w = Matrix::zeros(1, 1);
        let mut g = Matrix::zeros(1, 1);
        opt.step([(&mut w, &mut g)]);
        let mut w2 = Matrix::zeros(1, 1);
        let mut g2 = Matrix::zeros(1, 1);
        opt.step([(&mut w, &mut g), (&mut w2, &mut g2)]);
    }

    #[test]
    fn default_optimizer_is_paper_adam() {
        let opt = Adam::default();
        assert!((opt.learning_rate - 0.001).abs() < 1e-12);
    }

    /// Deterministic pseudo-gradient stream (no RNG: reproducible bitwise).
    fn fake_grad(step: usize, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((step * 131 + r * 17 + c * 7) as f64 * 0.37).sin() * 1.5
        })
    }

    /// The in-place Adam kernel must follow the exact trajectory of a
    /// naively allocating reference that evaluates the same expression tree
    /// (`w - lr * m_hat / (v_hat.sqrt() + eps)`), bit for bit, so optimiser
    /// state never drifts from the golden fixtures.
    #[test]
    fn adam_trajectory_matches_allocating_reference_bitwise() {
        let (lr, beta1, beta2, eps) = (0.001, 0.9, 0.999, 1e-8);
        let mut opt = Adam::new(lr);
        let mut w = Matrix::from_fn(4, 3, |r, c| (r as f64 - c as f64) * 0.25);
        let mut w_ref = w.clone();
        let mut m_ref = Matrix::zeros(4, 3);
        let mut v_ref = Matrix::zeros(4, 3);
        for step in 1..=50 {
            let mut g = fake_grad(step, 4, 3);
            opt.step([(&mut w, &mut g)]);

            let b1t = 1.0 - beta1_pow(beta1, step);
            let b2t = 1.0 - beta1_pow(beta2, step);
            m_ref = m_ref.zip_map(&g, |mv, gv| beta1 * mv + (1.0 - beta1) * gv);
            v_ref = v_ref.zip_map(&g, |vv, gv| beta2 * vv + (1.0 - beta2) * gv * gv);
            let num = m_ref.zip_map(&v_ref, |mv, vv| {
                let m_hat = mv / b1t;
                let v_hat = vv / b2t;
                lr * m_hat / (v_hat.sqrt() + eps)
            });
            w_ref = w_ref.zip_map(&num, |wv, u| wv - u);

            for (a, b) in w.as_slice().iter().zip(w_ref.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "diverged at step {step}");
            }
        }
    }

    fn beta1_pow(beta: f64, t: usize) -> f64 {
        beta.powi(t as i32)
    }
}
