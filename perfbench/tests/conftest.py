import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import env  # noqa: E402

env.cap_blas_threads()
env.use_checkout_src()
