"""The joint output law of the stable queue.

In equilibrium the output pair (departure process, back-of-queue marks)
has the law of the input pair (arrival process, service marks): departure
gaps match the arrival-gap law, dual marks match the mark law, and the two
are independent.  Customer 1's wait is drawn from the stationary law, so
both the geometric and the exponential model are in equilibrium from the
first customer and every customer is tested.
"""

from dualq.sampling import RateParams, Seed
from dualq.stattest import burke_experiment


def show(params, horizon):
    report = burke_experiment(params, horizon, Seed(1))
    print(f"\n{params.model}  arrival={params.arrival}  service={params.service}  "
          f"utilization={params.utilization:.2f}  "
          f"initial wait={report.diagnostics['initial_wait']:.4g}")
    for res in report.results:
        print(f"  {res.name:<26} stat={res.statistic:>9.4f}  "
              f"p={res.p_value:.4f}  {'pass' if res.p_value >= report.alpha else 'FAIL'}")
    print(f"  verdict: {'pass' if report.passed else 'FAIL'}")


for params in [RateParams("geomgeom1", 0.3, 0.6), RateParams("mm1", 0.3, 0.7)]:
    show(params, 50_000)

# near saturation an empty start would need tens of thousands of customers to
# forget itself; the stationary start is tested from customer 1
show(RateParams("mm1", 0.69, 0.7), 2_000)
