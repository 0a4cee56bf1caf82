import sys

from tools.census import main

sys.exit(main())
