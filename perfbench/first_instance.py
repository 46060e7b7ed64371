"""Set-up child: import the package, build one workload's stream and model,
and score the first instance.

run.py starts this script several times per run and times each process
from start to exit; the median is the benchmark's ``setup_s``.

    python3 perfbench/first_instance.py <workload> <seed>
"""

import sys

from workloads import WORKLOADS, import_streamdcs

if __name__ == "__main__":
    sd = import_streamdcs()
    stream, model = WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    sd.prequential_run(stream, model, n=1)
