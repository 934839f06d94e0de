import sys
from pathlib import Path

# The benchmark's modules (run, tracer, child) live one level up.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
