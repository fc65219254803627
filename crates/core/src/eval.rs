//! Centralized evaluation of the global model against virtual time.
//!
//! The paper records "the performance of the global model with respect to
//! virtual timestamps" (§5.3.1). The [`GlobalEvaluator`] holds a template
//! model and a pooled test set; the server calls it after aggregations and
//! appends [`EvalRecord`]s to its history, which the bench harness turns into
//! Table 1 and the learning-curve figures.

use fs_tensor::loss::Target;
use fs_tensor::model::{Metrics, Model};
use fs_tensor::{ParamMap, Tensor};

/// One point on the global learning curve.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalRecord {
    /// Aggregation round at which the evaluation ran.
    pub round: u64,
    /// Virtual time of the evaluation, seconds.
    pub time_secs: f64,
    /// Global-model metrics on the pooled test set.
    pub metrics: Metrics,
}

impl std::fmt::Display for EvalRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round {} @ {:.1}s: {}",
            self.round, self.time_secs, self.metrics
        )
    }
}

/// Evaluates global parameters on a fixed pooled test set. The learning
/// curve is the caller's: whoever evaluates pushes its own [`EvalRecord`].
pub struct GlobalEvaluator {
    model: Box<dyn Model>,
    x: Tensor,
    y: Target,
}

impl GlobalEvaluator {
    /// Creates an evaluator from a template model and a pooled test set.
    pub fn new(model: Box<dyn Model>, x: Tensor, y: Target) -> Self {
        Self { model, x, y }
    }

    /// Loads `params` into the template (missing keys keep template values,
    /// which matters when only a shared subset is federated) and evaluates.
    pub fn eval(&mut self, params: &ParamMap) -> Metrics {
        self.model.set_params(params);
        self.model.evaluate(&self.x, &self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_tensor::model::logistic_regression;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eval_applies_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(2, 2, &mut rng);
        // inputs where class = argmax of identity map
        let x = Tensor::from_vec(vec![2, 2], vec![5.0, 0.0, 0.0, 5.0]);
        let y = Target::Classes(vec![0, 1]);
        let mut ev = GlobalEvaluator::new(Box::new(model), x, y);
        // identity weights solve the problem perfectly
        let mut good = ParamMap::new();
        good.insert(
            "fc.weight",
            Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]),
        );
        good.insert("fc.bias", Tensor::zeros(&[2]));
        let m = ev.eval(&good);
        assert_eq!(m.accuracy, 1.0);
        // inverted weights get everything wrong
        let mut bad = ParamMap::new();
        bad.insert(
            "fc.weight",
            Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]),
        );
        bad.insert("fc.bias", Tensor::zeros(&[2]));
        let m = ev.eval(&bad);
        assert_eq!(m.accuracy, 0.0);
    }

    #[test]
    fn eval_record_serde_and_display() {
        let r = EvalRecord {
            round: 4,
            time_secs: 120.5,
            metrics: Metrics {
                loss: 0.5,
                accuracy: 0.75,
                n: 80,
            },
        };
        let shown = format!("{r}");
        assert!(shown.contains("round 4"), "{shown}");
        assert!(shown.contains("acc=0.7500"), "{shown}");
        let json = serde_json::to_string(&r).unwrap();
        let back: EvalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
