import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# the locks (ci/locks.py) and the deep grid's memo scan are imported from ci/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ci"))

settings.register_profile(
    "polycauchy",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# a deeper property run for CI: pytest --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("polycauchy"), max_examples=500)
settings.load_profile("polycauchy")
