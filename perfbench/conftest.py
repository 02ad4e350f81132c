import sys
from pathlib import Path

# The benchmark imports the library from the checkout's source tree.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
