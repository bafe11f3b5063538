// L1 fixture: the same two classes nested in both directions — a lock
// cycle (the two-thread deadlock condition) — plus a same-class
// reacquisition, which a std lock cannot survive.

struct NameNode {
    policy: Mutex<Policy>,
    stripes: Mutex<StripeMap>,
}

impl NameNode {
    fn coarse_then_fine(&self) {
        let policy = self.policy.lock();
        let stripes = self.stripes.lock();
        drop(stripes);
        drop(policy);
    }

    fn fine_then_coarse(&self) {
        let stripes = self.stripes.lock();
        let policy = self.policy.lock();
        drop(policy);
        drop(stripes);
    }

    fn reentrant(&self) {
        let first = self.stripes.lock();
        let second = self.stripes.lock();
        drop(second);
        drop(first);
    }
}
