import sys

from benchmarks.record.run import main

sys.exit(main())
