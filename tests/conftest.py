"""Test-suite settings.

When ``CI`` is set, as GitHub Actions sets it, the ``hypothesis`` profile
``ci`` is loaded: a generated case that fails prints its
``@reproduce_failure`` blob in the job log, so it can be replayed locally.
Local runs keep the default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
