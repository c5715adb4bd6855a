//! Tests of the crate-root [`fan_out`](crate::fan_out) re-export of
//! [`wwt_pool`], the indexed fan-out the probe scatter, the evaluation
//! harness and the service layer's `answer_batch` go through.

mod tests {
    use crate::fan_out;

    #[test]
    fn preserves_order_across_thread_counts() {
        let expected: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 2, 4, 16] {
            assert_eq!(fan_out(57, threads, |i| i * i), expected);
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert_eq!(fan_out(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 4, |i| i + 1), vec![1]);
    }
}
