"""Test-suite settings.

Every ``hypothesis`` test runs without a deadline: the ``mulprob`` profile,
loaded for local runs, sets it once for the whole suite.  When ``CI`` is
set, as GitHub Actions sets it, the ``ci`` profile is loaded instead: the
same settings, and a generated case that fails prints its
``@reproduce_failure`` blob in the job log, so it can be replayed locally.
"""

import os

from hypothesis import settings

settings.register_profile("mulprob", deadline=None)
settings.register_profile("ci", settings.get_profile("mulprob"), print_blob=True)
settings.load_profile("ci" if os.environ.get("CI") else "mulprob")
