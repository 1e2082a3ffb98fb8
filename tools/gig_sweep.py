"""Digest of 3000 seeded ``gig_rvs`` calls: every draw, error and stream state.

    PYTHONPATH=src python3 tools/gig_sweep.py

Prints the sha256 of what each call returns (its bytes and shape) or the
message of the ValueError it raises, followed by two uniforms from its
generator, so a change that keeps every GIG draw and every error prints
the same digest as its parent.  Then one ``form N: <sha256>`` line for
each of the seven input forms below, the digest of that form's calls
alone, and one line per outcome: a count and the first 40 characters of
the error message, or ``ok``.

The calls cover eleven orders other than +-1/2 (0 among them), c and d
log-uniform over about 2e-9 to 5e8 in seven forms: 0, 1-d pairs; 1, a
scalar c against a 1-d d; 2, a 2-d c against a 1-d d; 3, 2-d pairs
with some d = 0; 4, 1-d pairs with some d = 0; 5, scalar pairs; 6, 1-d
pairs spread over the double range, where the limit draws overflow and
Devroye's hat breaks.  Any RuntimeWarning is an error.
"""

import hashlib
import warnings
from collections import Counter

import numpy as np

from hqreg.randist import gig_rvs

ORDERS = [0.0, 0.1, -0.1, 1.0, -1.0, 1.5, -1.5, 2.7, -3.3, 10.0, -25.0]
FORMS = 7


def main() -> None:
    warnings.simplefilter("error")
    meta = np.random.default_rng(12345)

    def logu(shape):
        return np.exp(meta.uniform(np.log(2e-9), np.log(5e8), size=shape))

    digest, outcomes = hashlib.sha256(), Counter()
    by_form = [hashlib.sha256() for _ in range(FORMS)]
    for call in range(3000):
        nu = ORDERS[meta.integers(len(ORDERS))]
        form = meta.integers(FORMS)
        size = int(meta.integers(1, 25))
        if form == 0:
            c, d = logu(size), logu(size)
        elif form == 1:
            c, d = float(logu(())), logu(size)
        elif form == 2:
            c, d = logu((3, 4)), logu(4)
        elif form == 3:
            c, d = logu((3, 4)), logu((3, 4))
            d[meta.random((3, 4)) < 0.3] = 0.0
        elif form == 4:
            c, d = logu(size), logu(size)
            d[meta.random(size) < 0.3] = 0.0
        elif form == 5:
            c, d = float(logu(())), float(logu(()))
        else:
            c, d = np.exp(meta.uniform(-400, 400, size=(2, size)))
        gen = np.random.default_rng(call)
        try:
            out = gig_rvs(gen, nu, c, d)
            record = b"ok" + np.asarray(out, dtype=float).tobytes() + str(np.shape(out)).encode()
            outcomes["ok"] += 1
        except ValueError as exc:
            record = b"err" + str(exc).encode()
            outcomes[str(exc)[:40]] += 1
        record += gen.random(2).tobytes()
        digest.update(record)
        by_form[form].update(record)
    print(digest.hexdigest())
    for form, form_digest in enumerate(by_form):
        print(f"form {form}: {form_digest.hexdigest()}")
    for outcome, count in sorted(outcomes.items()):
        print(count, outcome)


if __name__ == "__main__":
    main()
